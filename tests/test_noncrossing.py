"""Non-crossing partition layer against brute-force oracles."""

import math

import pytest

from freeprob import noncrossing as nc
from freeprob import oracles


def all_set_partitions(n):
    """Brute-force oracle: every set partition of {1..n}."""
    if n == 0:
        yield []
        return
    for rest in all_set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1:]
        yield rest + [[n]]


def all_pairings(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i in range(len(rest)):
        partner = rest[i]
        remaining = rest[:i] + rest[i + 1:]
        for tail in all_pairings(remaining):
            yield [(first, partner)] + tail


class TestSetPartition:
    def test_canonical_form_enforced(self):
        p = oracles.SetPartition.of(4, [[2, 4], [3, 1]])
        assert p.blocks == ((1, 3), (2, 4))

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            oracles.SetPartition.of(3, [[1, 2]])  # missing 3
        with pytest.raises(ValueError):
            oracles.SetPartition.of(3, [[1, 2], [2, 3]])  # overlap
        with pytest.raises(ValueError):
            oracles.SetPartition.of(3, [[1, 1, 2], [3]])  # repeat


class TestIsNoncrossing:
    def test_canonical_crossing(self):
        assert not oracles.is_noncrossing(oracles.SetPartition.of(4, [[1, 3], [2, 4]]))

    def test_nested_pairing(self):
        assert oracles.is_noncrossing(oracles.SetPartition.of(4, [[1, 4], [2, 3]]))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_singletons_never_cross(self, n):
        p = oracles.SetPartition.of(n, [[i] for i in range(1, n + 1)])
        assert oracles.is_noncrossing(p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_filter_oracle(self, n):
        via_filter = {
            oracles.SetPartition.of(n, blocks).blocks
            for blocks in all_set_partitions(n)
            if oracles.is_noncrossing(oracles.SetPartition.of(n, blocks))
        }
        via_recursion = {p.blocks for p in oracles.enumerate_nc(n)}
        assert via_recursion == via_filter


class TestEnumerateNC:
    def test_n1(self):
        assert len(list(oracles.enumerate_nc(1))) == 1

    def test_n3_all_noncrossing(self):
        assert len(list(oracles.enumerate_nc(3))) == 5

    def test_n4_count(self):
        assert len(list(oracles.enumerate_nc(4))) == 14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_are_catalan(self, n, registry_record):
        registry_record("nc-catalan-counts")

    def test_no_duplicates(self):
        seen = list(oracles.enumerate_nc(7))
        assert len(seen) == len({p.blocks for p in seen})

    def test_deterministic_order(self):
        assert list(oracles.enumerate_nc(6)) == list(oracles.enumerate_nc(6))
        assert list(oracles.enumerate_nc(3))[0].blocks == ((1,), (2,), (3,))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_yields_canonical_partitions_unchecked(self, n):
        # enumerate_nc skips SetPartition.of; the raw block lists must already
        # be canonical, in the same order as when each went through .of
        got = list(oracles.enumerate_nc(n))
        via_of = [oracles.SetPartition.of(n, b) for b in oracles.enumerate_nc_blocks(range(1, n + 1))]
        assert got == via_of
        assert all(p == oracles.SetPartition.of(n, p.blocks) for p in got)

    def test_bound_error(self):
        with pytest.raises(nc.EnumerationBoundError):
            list(oracles.enumerate_nc(25))


class TestPairings:
    def test_n2(self):
        assert [p.blocks for p in oracles.enumerate_nc_pairings(2)] == [((1, 2),)]

    def test_n4(self):
        got = {p.blocks for p in oracles.enumerate_nc_pairings(4)}
        assert got == {((1, 2), (3, 4)), ((1, 4), (2, 3))}

    def test_n6_count(self):
        assert len(list(oracles.enumerate_nc_pairings(6))) == 5

    def test_odd_is_empty(self):
        assert list(oracles.enumerate_nc_pairings(5)) == []

    @pytest.mark.parametrize("n", range(2, 15, 2))
    def test_counts(self, n, registry_record):
        registry_record("nc-pairing-counts")

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_matching_oracle(self, n):
        oracle = {
            oracles.SetPartition.of(n, pairs).blocks
            for pairs in all_pairings(tuple(range(1, n + 1)))
            if oracles.is_noncrossing(oracles.SetPartition.of(n, pairs))
        }
        assert {p.blocks for p in oracles.enumerate_nc_pairings(n)} == oracle


class TestJoinConnects:
    def test_figure_examples(self):
        # the three partitions drawn with the multi-index (2,1,2,1)
        iv = oracles.IntervalPartition.of((2, 1, 2, 1))
        pi1 = oracles.SetPartition.of(6, [[1, 5, 6], [2, 3, 4]])
        pi2 = oracles.SetPartition.of(6, [[1, 6], [2, 3, 4, 5]])
        pi3 = oracles.SetPartition.of(6, [[1, 2], [3, 4], [5, 6]])
        assert oracles.join_connects(pi1, iv)
        assert oracles.join_connects(pi2, iv)
        assert not oracles.join_connects(pi3, iv)  # isolates the first interval

    def test_full_block_connects_anything(self):
        full = oracles.SetPartition.of(6, [[1, 2, 3, 4, 5, 6]])
        for sizes in ((2, 1, 2, 1), (3, 3), (1,) * 6):
            assert oracles.join_connects(full, oracles.IntervalPartition.of(sizes))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            oracles.join_connects(
                oracles.SetPartition.of(4, [[1, 2], [3, 4]]), oracles.IntervalPartition.of((2, 1))
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unique_connecting_pairing(self, n, registry_record):
        registry_record("nc-unique-connecting-pairing")


class TestAlternating:
    def test_pattern_1_1(self):
        pat = oracles.AlternationPattern.of((1, 1))
        assert [p.blocks for p in oracles.enumerate_alternating(pat)] == [((1, 2),)]

    def test_pattern_2_2(self):
        pat = oracles.AlternationPattern.of((2, 2))
        assert [p.blocks for p in oracles.enumerate_alternating(pat)] == [((1, 4), (2, 3))]

    def test_unbalanced_empty(self):
        assert list(oracles.enumerate_alternating(oracles.AlternationPattern.of((2, 1)))) == []

    def test_empty_pattern_single_empty_partition(self):
        got = list(oracles.enumerate_alternating(oracles.AlternationPattern.of((0, 0))))
        assert len(got) == 1 and got[0].blocks == ()

    def test_mixed_run_pattern(self):
        # NC(2,3,4,3): the 12-letter word a*^2 a^3 a*^4 a^3
        pat = oracles.AlternationPattern.of((2, 3, 4, 3))
        members = list(oracles.enumerate_alternating(pat))
        assert members  # non-empty: pairings of this word exist
        for p in members:
            assert oracles.is_noncrossing(p)
            letters = pat.letters()
            for block in p.blocks:
                assert len(block) % 2 == 0
                for a, b in zip(block, block[1:]):
                    assert letters[a - 1] != letters[b - 1]

    @pytest.mark.parametrize(
        "runs", [(1, 1), (2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (1, 1, 1, 1, 1, 1), (3, 1, 1, 3)]
    )
    def test_subset_of_nc_via_oracle(self, runs, registry_record):
        registry_record("nc-alternating-subset")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fully_alternating_counts_are_fuss_catalan(self, n):
        # even non-crossing partitions of (a* a)^n are counted by C^(2)_n
        pat = oracles.AlternationPattern.of((1, 1) * n)
        assert sum(1 for _ in oracles.enumerate_alternating(pat)) == nc.fuss_catalan(2, n)


class TestFussCatalan:
    def test_examples(self):
        assert nc.fuss_catalan(2, 0) == 1
        assert nc.fuss_catalan(2, 2) == 3  # C(6,2)/5
        assert nc.fuss_catalan(1, 3) == 5  # ordinary Catalan

    def test_table(self):
        assert [nc.fuss_catalan(2, k) for k in range(7)] == [1, 1, 3, 12, 55, 273, 1428]

    def test_matches_binomial_formula(self):
        for p in (1, 2, 3):
            for k in range(8):
                assert nc.fuss_catalan(p, k) * (p * k + 1) == math.comb((p + 1) * k, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nc.fuss_catalan(0, 3)
        with pytest.raises(ValueError):
            nc.fuss_catalan(2, -1)
