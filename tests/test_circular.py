"""Spectral analysis of the shifted circular square modulus."""

import math
from fractions import Fraction

import pytest

from freeprob import circular as ci
from freeprob.ring import Poly


class TestKTransform:
    def test_value_at_half_m0(self):
        assert ci.k_transform(0.5, 0.0) == pytest.approx(8.0, abs=1e-14)
        assert ci.k_transform_summed(0.5, 0.0) == pytest.approx(8.0, abs=1e-14)

    def test_forms_agree_at_random_points(self, registry_record):
        registry_record("k-transform-forms")

    def test_pole_errors(self):
        with pytest.raises(ci.PoleError):
            ci.k_transform(0.0, 1.0)
        with pytest.raises(ci.PoleError):
            ci.k_transform(1.0, 1.0)

    def test_k_at_critical_points_is_support(self, registry_record):
        registry_record("support-endpoints-critical-search")

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
    def test_equals_s_minus(self, registry_record):
        registry_record("inf-spec-consistency")

    def test_sqrt2(self):
        assert ci.inf_spec(math.sqrt(2.0)) == pytest.approx((71 - 17**1.5) / 16, rel=1e-13)

    def test_taylor_leading_term(self, registry_record):
        registry_record("taylor-leading-term")

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

    def test_functional_inverse_residual(self, registry_record):
        registry_record("cauchy-functional-inverse")

    def test_herglotz(self, registry_record):
        registry_record("cauchy-herglotz")

    def test_support_rejected(self):
        lam = 2.0
        sm, sp = ci.support_endpoints(lam)
        with pytest.raises(ci.BranchError):
            ci.cauchy_transform(complex(0.5 * (sm + sp), 0.0), lam)
        with pytest.raises(ci.BranchError):
            ci.cauchy_transform(0j, lam)


class TestDensity:
    def test_mass(self, registry_record):
        registry_record("density-properties")

    def test_mean(self, registry_record):
        registry_record("density-properties")

    def test_second_moment_vs_combinatorial(self):
        expected = float(ci.shift_square_modulus_moment(2, Fraction(2)))
        assert expected == 34.0
        assert ci.density(2.0, 512).moment(2) == pytest.approx(expected, rel=1e-5)

    def test_grid_inside_support(self, registry_record):
        registry_record("density-properties")

    def test_density_nonnegative_and_positive_inside(self, registry_record):
        registry_record("density-properties")

    @pytest.mark.parametrize("lam", [1.1, 1.5, 3.0, 10.0])
    def test_mass_and_mean_across_lambdas(self, lam, registry_record):
        registry_record("density-properties")

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
    def test_point_mass(self, registry_record):
        registry_record("pushforward-inverse-sqrt")

    def test_mass_conservation_and_support(self, registry_record):
        registry_record("pushforward-inverse-sqrt")

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
    def test_analytic_coefficients(self, registry_record):
        registry_record("r-transform-identity")

    def test_combinatorial_route_matches(self, registry_record):
        registry_record("r-transform-identity")

    def test_cumulants_sum_to_the_transform_series(self, registry_record):
        registry_record("r-transform-identity")

    def test_lam_zero_free_poisson(self, registry_record):
        registry_record("r-transform-identity")


class TestWordMoments:
    def test_first_moment(self):
        lam = Poly.var("lam")
        assert ci.shift_square_modulus_moment(1, lam) == lam**2 + 1

    def test_second_moment_closed_form(self):
        lam = Poly.var("lam")
        assert ci.shift_square_modulus_moment(2, lam) == lam**4 + 4 * lam**2 + 2
