"""Free-cumulant calculus: conversions, product cumulants, R-diagonal words."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import cumulants as cu
from freeprob import noncrossing as nc
from freeprob import oracles
from freeprob.ring import Poly

LAM = Poly.var("lam")

# a a* laws written the way the benchmark writes its model files: dyadic atom
# pairs 1 -/+ d of equal dyadic weight
DYADIC_LAWS = (
    [(Fraction(1), Fraction(1, 4))]
    + [(1 + s * d, Fraction(3, 16)) for d in (Fraction(3, 16), Fraction(5, 16)) for s in (-1, 1)],
    [(1 + s * Fraction(15, 16), Fraction(1, 2)) for s in (-1, 1)],
)


def _alpha_of_atoms(atoms, order: int = 8) -> tuple:
    return tuple(cu.alpha_from_aa_star_moments(
        [sum(w * x**n for x, w in atoms) for n in range(1, order + 1)]))


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
        cf = oracles.CumulantFunctional.from_univariate("s", [0, 1, 0, 0])
        assert oracles.moment_from_cumulants(cf, ["s"] * 4) == 2

    def test_word_length_one(self):
        cf = oracles.CumulantFunctional.from_univariate("x", [Fraction(7, 2), 1])
        assert oracles.moment_from_cumulants(cf, ["x"]) == Fraction(7, 2)

    def test_circular_alternating_word(self):
        cf = oracles.CumulantFunctional.circular()
        assert oracles.moment_from_cumulants(cf, ["c", "c*", "c", "c*"]) == 2
        assert oracles.moment_from_cumulants(cf, ["c", "c*", "c", "c*", "c", "c*"]) == 5

    def test_nested_word_and_unbalanced_word(self):
        cf = oracles.CumulantFunctional.circular()
        # c c c* c*: only the fully nested pairing contributes
        assert oracles.moment_from_cumulants(cf, ["c", "c", "c*", "c*"]) == 1
        assert oracles.moment_from_cumulants(cf, ["c", "c", "c", "c*"]) == 0

    def test_resource_error(self):
        cf = oracles.CumulantFunctional.circular()
        with pytest.raises(nc.EnumerationBoundError):
            oracles.moment_from_cumulants(cf, ["c", "c*"] * (oracles.ENUMERATION_BOUND // 2 + 1))

    def test_order_cap(self):
        cf = oracles.CumulantFunctional.from_univariate("x", [1, 1], max_order=2)
        with pytest.raises(cu.OrderCapError):
            cf.block_cumulant(["x"] * 3)


class TestProductCumulant:
    def test_alternating_product_powers(self):
        cf = oracles.CumulantFunctional.circular()
        for n in range(1, 6):
            groups = oracles.IntervalPartition.of((2,) * n)
            assert oracles.product_cumulant(groups, cf, ["c", "c*"] * n) == 1

    def test_singleton_grouping_is_identity(self):
        cf = oracles.CumulantFunctional.from_univariate("x", [1, Fraction(1, 2), 2, 0])
        for n in range(1, 5):
            word = ["x"] * n
            direct = cf.block_cumulant(word)
            # singleton grouping: only partitions joining the singletons to 1
            if n == 1:
                grouped = oracles.product_cumulant(oracles.IntervalPartition.of((1,)), cf, word)
                assert grouped == direct

    def test_mixed_pair_values(self):
        cf = oracles.CumulantFunctional.circular()
        a1 = oracles.LinComb.of({"c": -LAM, "c*": -LAM})
        assert cf.block_cumulant(["c*", a1]) == -LAM
        assert cf.block_cumulant([a1, "c"]) == -LAM

    def test_size_mismatch(self):
        cf = oracles.CumulantFunctional.circular()
        with pytest.raises(ValueError):
            oracles.product_cumulant(oracles.IntervalPartition.of((2, 2)), cf, ["c", "c*"])


class TestRdiagMoment:
    def test_alpha1(self, circular_model):
        assert oracles.rdiag_moment(circular_model, oracles.AlternationPattern.of((1, 1))) == 1

    def test_circular_cubed(self, circular_model):
        pat = oracles.AlternationPattern.of((1, 1) * 3)
        assert oracles.rdiag_moment(circular_model, pat) == 5

    def test_haar_powers(self, haar_model):
        for n in range(1, 5):
            pat = oracles.AlternationPattern.of((1, 1) * n)
            assert oracles.rdiag_moment(haar_model, pat) == 1

    def test_unbalanced_is_zero(self, circular_model):
        assert oracles.rdiag_moment(circular_model, oracles.AlternationPattern.of((2, 1))) == 0

    def test_empty_pattern_is_one(self, circular_model):
        assert oracles.rdiag_moment(circular_model, oracles.AlternationPattern.of((0, 0))) == 1

    def test_order_cap(self):
        # (a* a)^3 admits the full alternating 6-block, which needs alpha_3
        model = cu.OperatorModel(name="tiny", alpha=(Fraction(1), Fraction(1)))
        with pytest.raises(cu.OrderCapError):
            oracles.rdiag_moment(model, oracles.AlternationPattern.of((1, 1, 1, 1, 1, 1)))

class TestCircularShiftCumulants:
    def test_first_cumulant(self, registry_record):
        registry_record("circular-shift-cumulants")

    def test_second_cumulant(self, registry_record):
        registry_record("circular-shift-cumulants")

    @pytest.mark.parametrize("n", range(3, 8))
    def test_general_cumulant(self, n, registry_record):
        registry_record("circular-shift-cumulants")

    def test_only_even_lambda_powers(self):
        for k in oracles.circular_shift_cumulants(4):
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

    def test_aa_star_moments_equal_the_fraction_double_map(
            self, circular_model, two_atom_model, haar_model):
        alphas = [model.alpha for model in (circular_model, two_atom_model, haar_model)]
        alphas += [_alpha_of_atoms(atoms) for atoms in DYADIC_LAWS]
        alphas.append((Fraction(1), Fraction(2, 3), Fraction(-5, 7), Fraction(1, 21),
                       Fraction(4, 9), Fraction(-3, 49), Fraction(10, 147)))
        for alpha in alphas:
            moments = cu.OperatorModel(name="m", alpha=alpha).aa_star_moments()
            assert moments == cu.free_moments_from_cumulants(cu.free_moments_from_cumulants(alpha))
            assert all(type(m) is Fraction for m in moments)

    def test_consistency_check_builds_no_fraction(self, two_atom_model, monkeypatch):
        import freeprob.measures as me

        atoms = DYADIC_LAWS[0]
        built = cu.OperatorModel(
            name="dyadic",
            alpha=_alpha_of_atoms(atoms),
            aa_star_measure=me.SpectralMeasure.from_atoms([(float(x), float(w)) for x, w in atoms]),
        )

        def refuse(cls, *args, **kwargs):
            raise AssertionError("a Fraction built by the load-time check")

        monkeypatch.setattr(cu.Fraction, "__new__", refuse)
        built.check_measure_consistency()
        two_atom_model.check_measure_consistency()

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
            oracles.rdiag_moment(model, oracles.AlternationPattern.of((1, 1) * n))
            for n in range(1, len(alphas) + 1)
        ]
        assert cu.alpha_from_aa_star_moments(moments) == alphas
        # kappa_2n(mu) = alpha_n for the symmetrized modulus, moments (0, m_1, 0, m_2, ...)
        interleaved = [m for moment in moments for m in (Fraction(0), moment)]
        assert cu.cumulants_from_moments(interleaved)[1::2] == alphas
