"""Free-cumulant calculus: conversions, product cumulants, R-diagonal words."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import cumulants as cu
from freeprob import noncrossing as nc
from freeprob.ring import Poly

LAM = Poly.var("lam")


class TestScalarConversions:
    def test_point_mass(self):
        assert cu.cumulants_from_moments([1, 1, 1, 1]) == [1, 0, 0, 0]

    def test_free_poisson(self):
        assert cu.cumulants_from_moments([1, 2, 5, 14]) == [1, 1, 1, 1]

    def test_semicircle(self):
        assert cu.cumulants_from_moments([0, 1, 0, 2]) == [0, 1, 0, 0]
        assert cu.free_moments_from_cumulants([0, 1, 0, 0, 0, 0, 0, 0]) == [
            0, 1, 0, 2, 0, 5, 0, 14]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=1, max_size=8))
    def test_roundtrip_exact(self, kappas):
        moments = cu.free_moments_from_cumulants(kappas)
        assert cu.cumulants_from_moments(moments) == kappas


class TestMomentFromCumulants:
    def test_semicircular_fourth_moment(self):
        cf = cu.CumulantFunctional.from_univariate("s", [0, 1, 0, 0])
        assert cu.moment_from_cumulants(cf, ["s"] * 4) == 2

    def test_word_length_one(self):
        cf = cu.CumulantFunctional.from_univariate("x", [Fraction(7, 2), 1])
        assert cu.moment_from_cumulants(cf, ["x"]) == Fraction(7, 2)

    def test_circular_alternating_word(self):
        cf = cu.CumulantFunctional.circular()
        assert cu.moment_from_cumulants(cf, ["c", "c*", "c", "c*"]) == 2
        assert cu.moment_from_cumulants(cf, ["c", "c*", "c", "c*", "c", "c*"]) == 5

    def test_nested_word_and_unbalanced_word(self):
        cf = cu.CumulantFunctional.circular()
        # c c c* c*: only the fully nested pairing contributes
        assert cu.moment_from_cumulants(cf, ["c", "c", "c*", "c*"]) == 1
        assert cu.moment_from_cumulants(cf, ["c", "c", "c", "c*"]) == 0

    def test_resource_error(self):
        cf = cu.CumulantFunctional.circular()
        with pytest.raises(nc.EnumerationBoundError):
            cu.moment_from_cumulants(cf, ["c", "c*"] * 3, bound=4)

    def test_order_cap(self):
        cf = cu.CumulantFunctional.from_univariate("x", [1, 1], max_order=2)
        with pytest.raises(cu.OrderCapError):
            cf.block_cumulant(["x"] * 3)


class TestProductCumulant:
    def test_alternating_product_powers(self):
        cf = cu.CumulantFunctional.circular()
        for n in range(1, 6):
            groups = nc.IntervalPartition.of((2,) * n)
            assert cu.product_cumulant(groups, cf, ["c", "c*"] * n) == 1

    def test_singleton_grouping_is_identity(self):
        cf = cu.CumulantFunctional.from_univariate("x", [1, Fraction(1, 2), 2, 0])
        for n in range(1, 5):
            word = ["x"] * n
            direct = cf.block_cumulant(word)
            # singleton grouping: only partitions joining the singletons to 1
            if n == 1:
                grouped = cu.product_cumulant(nc.IntervalPartition.of((1,)), cf, word)
                assert grouped == direct

    def test_mixed_pair_values(self):
        cf = cu.CumulantFunctional.circular()
        a1 = cu.LinComb.of({"c": -LAM, "c*": -LAM})
        assert cf.block_cumulant(["c*", a1]) == -LAM
        assert cf.block_cumulant([a1, "c"]) == -LAM

    def test_size_mismatch(self):
        cf = cu.CumulantFunctional.circular()
        with pytest.raises(ValueError):
            cu.product_cumulant(nc.IntervalPartition.of((2, 2)), cf, ["c", "c*"])


class TestRdiagMoment:
    def test_alpha1(self, circular_model):
        assert cu.rdiag_moment(circular_model, nc.AlternationPattern.of((1, 1))) == 1

    def test_circular_cubed(self, circular_model):
        pat = nc.AlternationPattern.of((1, 1) * 3)
        assert cu.rdiag_moment(circular_model, pat) == 5

    def test_haar_powers(self, haar_model):
        for n in range(1, 5):
            pat = nc.AlternationPattern.of((1, 1) * n)
            assert cu.rdiag_moment(haar_model, pat) == 1

    def test_unbalanced_is_zero(self, circular_model):
        assert cu.rdiag_moment(circular_model, nc.AlternationPattern.of((2, 1))) == 0

    def test_empty_pattern_is_one(self, circular_model):
        assert cu.rdiag_moment(circular_model, nc.AlternationPattern.of((0, 0))) == 1

    def test_order_cap(self):
        # (a* a)^3 admits the full alternating 6-block, which needs alpha_3
        model = cu.OperatorModel(name="tiny", alpha=(Fraction(1), Fraction(1)))
        with pytest.raises(cu.OrderCapError):
            cu.rdiag_moment(model, nc.AlternationPattern.of((1, 1, 1, 1, 1, 1)))

class TestCircularShiftCumulants:
    def test_first_cumulant(self, registry_record):
        registry_record("circular-shift-cumulants")

    def test_second_cumulant(self, registry_record):
        registry_record("circular-shift-cumulants")

    @pytest.mark.parametrize("n", range(3, 8))
    def test_general_cumulant(self, n, registry_record):
        registry_record("circular-shift-cumulants")

    def test_only_even_lambda_powers(self):
        for k in cu.circular_shift_cumulants(4):
            assert all(d.get("lam", 0) % 2 == 0 for d in map(dict, k.terms))

class TestOperatorModel:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            cu.OperatorModel(name="bad", alpha=(Fraction(2),))

    def test_v_values(self, circular_model, haar_model, two_atom_model):
        assert circular_model.v == 1
        assert haar_model.v == 0
        assert two_atom_model.v == 1

    def test_measure_consistency_passes(self, circular_model, two_atom_model, haar_model):
        circular_model.check_measure_consistency()
        two_atom_model.check_measure_consistency()
        haar_model.check_measure_consistency()

    def test_measure_consistency_catches_corruption(self, two_atom_model):
        import freeprob.measures as me

        broken = cu.OperatorModel(
            name="broken",
            alpha=two_atom_model.alpha,
            aa_star_measure=me.SpectralMeasure.from_atoms([(0.0, 0.5), (2.5, 0.5)]),
        )
        with pytest.raises(ValueError, match="mismatch"):
            broken.check_measure_consistency()

    def test_alpha_inversion_roundtrip(self):
        alphas = [Fraction(1), Fraction(-1, 2), Fraction(3, 4), Fraction(0), Fraction(2)]
        model = cu.OperatorModel(name="rt", alpha=tuple(alphas))
        moments = model.aa_star_moments()
        assert cu.alpha_from_aa_star_moments(moments) == alphas

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=5))
    def test_aa_star_moments_match_enumeration(self, tail):
        alphas = [Fraction(1)] + tail
        model = cu.OperatorModel(name="random", alpha=tuple(alphas))
        moments = model.aa_star_moments()
        assert moments == [
            cu.rdiag_moment(model, nc.AlternationPattern.of((1, 1) * n))
            for n in range(1, len(alphas) + 1)
        ]
        assert cu.alpha_from_aa_star_moments(moments) == alphas
        # kappa_2n(mu) = alpha_n for the symmetrized modulus, moments (0, m_1, 0, m_2, ...)
        interleaved = [m for moment in moments for m in (Fraction(0), moment)]
        assert cu.cumulants_from_moments(interleaved)[1::2] == alphas
