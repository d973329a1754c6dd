"""Partition structure diagrams: enumeration, bijection, moment polynomials."""

import itertools
import math
from fractions import Fraction

import pytest

from freeprob import noncrossing as nc
from freeprob import psd
from freeprob import series as se
from freeprob.ring import Poly

X, Y = Poly.var("x"), Poly.var("y")


class TestPolygons:
    def test_alternating_polygons_on_square(self):
        polys = psd.polygons_on(4)
        assert set(polys) == {(0, 1), (0, 3), (1, 2), (2, 3), (0, 1, 2, 3)}

    def test_non_alternating_rejected(self):
        with pytest.raises(ValueError):
            psd.PolygonDiagram.of(1, [(0, 2)])

    def test_crossing_chords_rejected(self):
        with pytest.raises(ValueError):
            psd.PolygonDiagram.of(2, [(0, 3), (2, 5)])

    def test_chord_through_polygon_rejected(self):
        with pytest.raises(ValueError):
            psd.PolygonDiagram.of(2, [(0, 1, 2, 3, 4, 5), (0, 3)])

    def test_duplicate_polygons_rejected(self):
        with pytest.raises(ValueError):
            psd.PolygonDiagram.of(1, [(0, 1), (0, 1)])

    def test_shared_edge_allowed(self):
        d = psd.PolygonDiagram.of(2, [(0, 1, 2, 3), (0, 3, 4, 5), (0, 3)])
        assert len(d.polygons) == 3

    def test_labels_validated(self):
        d = psd.PolygonDiagram.of(1, [(0, 1), (0, 1, 2, 3)])
        psd.LabeledDiagram.of(d, (5, 1))
        with pytest.raises(ValueError):
            psd.LabeledDiagram.of(d, (5, 2))  # non-degenerate label must be 1
        with pytest.raises(ValueError):
            psd.LabeledDiagram.of(d, (0, 1))  # labels are positive


class TestEnumeration:
    def test_k0(self):
        diagrams = list(psd.enumerate_psd(0))
        assert len(diagrams) == 2
        assert {d.polygons for d in diagrams} == {(), ((0, 1),)}

    def test_every_diagram_valid(self):
        for k in (1, 2):
            for d in psd.enumerate_psd(k):
                rebuilt = psd.PolygonDiagram.of(k, d.polygons)  # re-validates
                assert rebuilt == d

    def test_counts_match_subset_filter_oracle(self):
        # brute force over all polygon subsets for small k
        for k in (0, 1, 2):
            polys = psd.polygons_on(2 * (k + 1))
            count = 0
            for r in range(len(polys) + 1):
                for subset in itertools.combinations(polys, r):
                    if all(
                        psd.compatible(p, q) for p, q in itertools.combinations(subset, 2)
                    ):
                        count += 1
            assert count == sum(1 for _ in psd.enumerate_psd(k))

    def test_bound_error(self):
        with pytest.raises(psd.DiagramBoundError):
            list(psd.enumerate_psd(9))


class TestProfileCounts:
    def test_binomial_identity(self, registry_record):
        registry_record("psd-binomial-identity")

    def test_zero_above_k(self, registry_record):
        registry_record("psd-binomial-identity")

    def test_zero_when_big_polygon_meets_max_chords(self, registry_record):
        registry_record("psd-big-polygon-bound")

    def test_big_polygon_chord_deficit(self, registry_record):
        registry_record("psd-big-polygon-bound")

    def test_k1_table(self):
        # all 32 diagrams on the square: binom(4,s) with or without the 4-gon
        for s in range(5):
            assert psd.profile_count(1, (s, 0)) == math.comb(4, s)
            assert psd.profile_count(1, (s, 1)) == math.comb(4, s)

    def test_chords_never_exceed_tiling_count(self, registry_record):
        registry_record("psd-binomial-identity")

    def test_table_cached_once_per_k(self):
        # every caller reaches the same lru_cache key, so each k misses once
        psd.profile_table.cache_clear()
        psd.profile_table(2)
        psd.profile_count(2, (7, 0))
        psd.moment_polynomial(2)
        assert psd.profile_table.cache_info().misses == 1


class TestQuadrangulations:
    def test_counts(self, registry_record):
        registry_record("psd-quadrangulation-counts")

    def test_count_matches_fuss_catalan(self, registry_record):
        registry_record("psd-quadrangulation-counts")

    def test_segment_counts(self, registry_record):
        registry_record("psd-quadrangulation-counts")

    def test_hexagon_tilings_explicit(self):
        tilings = psd.quadrangulations(2)
        # one internal chord each: (0,3), (1,4), or (2,5)
        internals = set()
        boundary = {tuple(sorted((i, (i + 1) % 6))) for i in range(6)}
        for t in tilings:
            inner = set(t) - boundary
            assert len(inner) == 1
            internals |= inner
        assert internals == {(0, 3), (1, 4), (2, 5)}


class TestCompression:
    def test_single_pair(self):
        pat = nc.AlternationPattern.of((1, 1))
        lp = psd.compress(pat, nc.SetPartition.of(2, [[1, 2]]))
        assert lp.diagram.polygons == ((0, 1),)
        assert lp.labels == (1,)

    def test_nested_pairs_merge_with_label(self):
        pat = nc.AlternationPattern.of((3, 3))
        part = nc.SetPartition.of(6, [[1, 6], [2, 5], [3, 4]])
        lp = psd.compress(pat, part)
        assert lp.diagram.polygons == ((0, 1),)
        assert lp.labels == (3,)

    def test_rejects_crossing(self):
        pat = nc.AlternationPattern.of((2, 2, 2, 2))
        crossing = nc.SetPartition.of(
            8, [[1, 4], [2, 7], [3, 6], [5, 8]]
        )
        with pytest.raises(ValueError):
            psd.compress(pat, crossing)

    def test_rejects_non_alternating(self):
        pat = nc.AlternationPattern.of((2, 2))
        bad = nc.SetPartition.of(4, [[1, 2], [3, 4]])  # pairs a* with a*
        with pytest.raises(ValueError):
            psd.compress(pat, bad)

    def test_decompress_single_2gon(self):
        d = psd.PolygonDiagram.of(0, [(0, 1)])
        lp = psd.LabeledDiagram.of(d, (1,))
        pat, part = psd.decompress(lp)
        assert pat.runs == (1, 1)
        assert part.blocks == ((1, 2),)

    def test_decompress_label_nests(self):
        d = psd.PolygonDiagram.of(0, [(0, 1)])
        lp = psd.LabeledDiagram.of(d, (3,))
        pat, part = psd.decompress(lp)
        assert pat.runs == (3, 3)
        assert part.blocks == ((1, 6), (2, 5), (3, 4))

    def test_roundtrip_exhaustive(self, registry_record):
        registry_record("psd-compression-bijection")


class TestMomentPolynomial:
    def test_k0(self):
        assert psd.moment_polynomial(0) == Y * (1 + X)

    def test_k1_circular_evaluates_to_closed_form(self, registry_record):
        registry_record("negative-moment-closed-forms")

    def test_leading_x_term(self):
        # [x^{3k+1}] P = C2_k y^{k+1} (1 + a2 y^2)^k with symbolic alpha_2
        for k in (1, 2, 3):
            poly = psd.moment_polynomial(k)
            a2 = Poly.var("a2")
            target = nc.fuss_catalan(2, k) * Y ** (k + 1) * (1 + a2 * Y**2) ** k
            lead = Poly()
            for mono, coeff in poly.terms.items():
                d = dict(mono)
                if d.get("x", 0) == 3 * k + 1:
                    rest = tuple((n, e) for n, e in sorted(d.items()) if n != "x")
                    lead = lead + Poly({rest: coeff})
            assert lead == target

    def test_k0_any_model(self, registry_record):
        registry_record("negative-moment-closed-forms")

    def test_matches_lagrange_route(self, registry_record):
        registry_record("psd-polynomial-vs-lagrange")

    def test_asymptotic_ratio_approaches_one(self, two_atom_model):
        k = 2
        errs = []
        for lam in (Fraction(11, 10), Fraction(101, 100), Fraction(1001, 1000)):
            exact = psd.negative_moment_psd(two_atom_model, lam, k)
            asym = se.asymptotic_negative_moment(two_atom_model.v, k, lam)
            errs.append(abs(float(exact / asym) - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_missing_alpha_order(self):
        from freeprob import cumulants as cu

        model = cu.OperatorModel(name="short", alpha=(Fraction(1), Fraction(0)))
        with pytest.raises(cu.OrderCapError):
            psd.negative_moment_psd(model, Fraction(2), 3)

    def test_float_mode(self, circular_model):
        exact = psd.negative_moment_psd(circular_model, Fraction(3, 2), 2)
        approx = psd.negative_moment_psd(circular_model, 1.5, 2)
        assert approx == pytest.approx(float(exact), rel=1e-12)

    def test_json_serialization(self):
        poly = psd.moment_polynomial(1, alphas=[Fraction(-1, 2)])
        triples = psd.moment_polynomial_json(poly)
        rebuilt = Poly()
        for xe, ye, coeff in triples:
            rebuilt = rebuilt + Poly.const(Fraction(coeff)) * X**xe * Y**ye
        assert rebuilt == poly
        with pytest.raises(ValueError):
            psd.moment_polynomial_json(psd.moment_polynomial(1))  # symbolic alphas
