"""Non-crossing set partitions, pairings, and alternating partitions.

The ground set is {1, ..., n}.  Partitions are kept in canonical form: each
block internally ascending, blocks ordered by their minima, so structural
equality is partition equality.

Enumeration is by recursive placement of the block containing the least
element of each region; the brute-force filter over all set partitions is
kept in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Sequence

from ._record import FrozenRecord

ENUMERATION_BOUND = 18
PAIRING_BOUND = ENUMERATION_BOUND + 4
# count_nc is a closed form; its bound keeps the printed Catalan number under
# CPython's default 4300-digit int -> str limit (Catalan(7100) has 4269 digits)
COUNT_BOUND = 7100


class EnumerationBoundError(ValueError):
    """Requested enumeration exceeds the configured practical bound."""


class SetPartition(FrozenRecord):
    """A partition of {1..n} into blocks, canonical form."""

    _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, blocks=blocks)

    @staticmethod
    def of(n: int, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        part = SetPartition(n, canon)
        part.validate()
        return part

    def validate(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(set(block)):
                raise ValueError("block not strictly increasing")
            if seen & set(block):
                raise ValueError("blocks not disjoint")
            seen |= set(block)
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks do not cover 1..{self.n}")
        mins = [b[0] for b in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks not ordered by minima")


class IntervalPartition(FrozenRecord):
    """Consecutive intervals of sizes (i1, ..., in); the coarse grouping 0-hat."""

    _fields = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]):
        self.__dict__["sizes"] = sizes

    @staticmethod
    def of(sizes: Sequence[int]) -> "IntervalPartition":
        sizes = tuple(int(s) for s in sizes)
        if any(s <= 0 for s in sizes):
            raise ValueError("interval sizes must be positive")
        return IntervalPartition(sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def blocks(self) -> list[tuple[int, ...]]:
        out, start = [], 1
        for s in self.sizes:
            out.append(tuple(range(start, start + s)))
            start += s
        return out


class AlternationPattern(FrozenRecord):
    """Run lengths (n0, m0, ..., nk, mk): n-runs of a* symbols, m-runs of a.

    Run lengths may be zero.  The derived word is a*^n0 a^m0 ... a*^nk a^mk.
    """

    _fields = ("runs",)

    def __init__(self, runs: tuple[int, ...]):
        self.__dict__["runs"] = runs

    @staticmethod
    def of(runs: Sequence[int]) -> "AlternationPattern":
        runs = tuple(int(r) for r in runs)
        if len(runs) % 2 != 0:
            raise ValueError("pattern needs an even number of runs (n,m pairs)")
        if any(r < 0 for r in runs):
            raise ValueError("run lengths must be non-negative")
        return AlternationPattern(runs)

    @property
    def star_total(self) -> int:
        return sum(self.runs[0::2])

    @property
    def a_total(self) -> int:
        return sum(self.runs[1::2])

    @property
    def word_length(self) -> int:
        return self.star_total + self.a_total

    def is_balanced(self) -> bool:
        return self.star_total == self.a_total

    def letters(self) -> list[str]:
        """Word as letters, '*' for a-star positions and 'a' for a positions."""
        out: list[str] = []
        for j, r in enumerate(self.runs):
            out.extend(("*" if j % 2 == 0 else "a") * r)
        return out

    def run_of_position(self) -> list[int]:
        """For each word position (0-based) the index of its run."""
        out: list[int] = []
        for j, r in enumerate(self.runs):
            out.extend([j] * r)
        return out


def blocks_cross(b1: Sequence[int], b2: Sequence[int]) -> bool:
    """True iff the two disjoint blocks interleave a < b < c < d."""
    merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
    runs = 0
    last = None
    for _, which in merged:
        if which != last:
            runs += 1
            last = which
    return runs >= 4


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no a < b < c < d has {a, c} and {b, d} in different blocks."""
    for i, b1 in enumerate(p.blocks):
        for b2 in p.blocks[i + 1:]:
            if blocks_cross(b1, b2):
                return False
    return True


def _regions_noncrossing(
    points: tuple[int, ...], allowed_sizes=None
) -> Iterator[list[tuple[int, ...]]]:
    """All non-crossing partitions of a sorted point tuple.

    ``allowed_sizes`` restricts block sizes (pruning for cumulant sums whose
    off-size blocks vanish identically).
    """
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    sizes = range(1, len(points) + 1) if allowed_sizes is None else sorted(
        s for s in allowed_sizes if 1 <= s <= len(points)
    )
    for size in sizes:
        for partners in combinations(rest, size - 1):
            block = (first,) + partners
            # independent gaps between consecutive block elements, plus the tail
            cuts = list(block[1:]) + [None]
            regions: list[tuple[int, ...]] = []
            lo = 0
            for cut in cuts:
                hi = rest.index(cut) if cut is not None else len(rest)
                region = tuple(x for x in rest[lo:hi] if x not in partners)
                regions.append(region)
                lo = hi
            yield from _product_of_regions(block, regions, allowed_sizes)


def _product_of_regions(block, regions, allowed_sizes, idx=0, acc=None):
    if acc is None:
        acc = []
    if idx == len(regions):
        yield [block] + acc
        return
    for sub in _regions_noncrossing(regions[idx], allowed_sizes):
        yield from _product_of_regions(block, regions, allowed_sizes, idx + 1, acc + sub)


def enumerate_nc(n: int) -> Iterator[SetPartition]:
    """All of NC(n), each exactly once.  Catalan(n) partitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"NC({n}) exceeds enumeration bound {ENUMERATION_BOUND}")
    # _regions_noncrossing emits canonical form already (each block ascending,
    # the block of a region's least point first, then the gap regions in order)
    for blocks in _regions_noncrossing(tuple(range(1, n + 1))):
        yield SetPartition(n, tuple(blocks))


def count_nc(n: int) -> int:
    """|NC(n)| = Catalan(n), up to COUNT_BOUND; verify checks the enumeration
    against it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > COUNT_BOUND:
        raise EnumerationBoundError(f"NC({n}) exceeds count bound {COUNT_BOUND}")
    return catalan(n)


def enumerate_nc_blocks(points: Sequence[int], allowed_sizes=None) -> Iterator[list[tuple[int, ...]]]:
    """Raw block lists of non-crossing partitions of given points, with an
    optional block-size restriction.  Used by the cumulant sums."""
    yield from _regions_noncrossing(tuple(points), allowed_sizes)


def enumerate_nc_pairings(n: int) -> Iterator[SetPartition]:
    """All non-crossing pairings of {1..n}; empty for odd n."""
    if n > PAIRING_BOUND:
        raise EnumerationBoundError(f"NC2({n}) exceeds enumeration bound {PAIRING_BOUND}")
    if n % 2 != 0:
        return
    def rec(points: tuple[int, ...]) -> Iterator[list[tuple[int, int]]]:
        if not points:
            yield []
            return
        first = points[0]
        for j in range(1, len(points), 2):
            partner = points[j]
            inside = points[1:j]
            outside = points[j + 1:]
            for left in rec(inside):
                for right in rec(outside):
                    yield [(first, partner)] + left + right
    for pairs in rec(tuple(range(1, n + 1))):
        yield SetPartition.of(n, pairs)


def join_connects(p: SetPartition, iv: IntervalPartition) -> bool:
    """True iff p joined with the interval partition is the full partition."""
    if iv.total != p.n:
        raise ValueError(f"ground sizes differ: partition {p.n}, intervals {iv.total}")
    parent = list(range(p.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for block in list(p.blocks) + iv.blocks():
        for a, b in zip(block, block[1:]):
            union(a, b)
    roots = {find(x) for x in range(1, p.n + 1)}
    return len(roots) == 1


def _alternating_rec(positions: tuple[int, ...], letters: Sequence[str]) -> Iterator[list[tuple[int, ...]]]:
    """Non-crossing partitions of ``positions`` into even alternating blocks."""
    if not positions:
        yield []
        return
    if len(positions) % 2 != 0:
        return
    stars = sum(1 for p in positions if letters[p - 1] == "*")
    if 2 * stars != len(positions):
        return
    first = positions[0]

    # grow the block containing `first` one element at a time; gaps between
    # chosen elements are closed off and recursed into as soon as complete
    def grow(block: list[int], remaining: tuple[int, ...], regions: list[tuple[int, ...]]):
        # close the block here (needs even size and balanced gap structure)
        if len(block) % 2 == 0:
            yield list(block), regions + [remaining]
        prev = block[-1]
        want = "a" if letters[prev - 1] == "*" else "*"
        for j, cand in enumerate(remaining):
            if letters[cand - 1] != want:
                continue
            gap = remaining[:j]
            if len(gap) % 2 != 0:
                continue
            yield from grow(block + [cand], remaining[j + 1:], regions + [gap])

    for block, regions in grow([first], positions[1:], []):
        if len(block) < 2:
            continue
        yield from _alt_regions_product(tuple(block), regions, letters)


def _alt_regions_product(block, regions, letters, idx=0, acc=None):
    if acc is None:
        acc = []
    if idx == len(regions):
        yield [block] + acc
        return
    for sub in _alternating_rec(regions[idx], letters):
        yield from _alt_regions_product(block, regions, letters, idx + 1, acc + sub)


def enumerate_alternating(pat: AlternationPattern) -> Iterator[SetPartition]:
    """Non-crossing partitions of the pattern word with even blocks whose
    elements alternate between a* and a in position order.

    Empty when the pattern is unbalanced; the empty pattern yields the empty
    partition once (its contribution to moment sums is 1).
    """
    if not pat.is_balanced():
        return
    n = pat.word_length
    if n == 0:
        yield SetPartition(0, ())
        return
    letters = pat.letters()
    for blocks in _alternating_rec(tuple(range(1, n + 1)), letters):
        yield SetPartition.of(n, blocks)


def fuss_catalan(p: int, k: int) -> int:
    """C^(p)_k = binom((p+1)k, k) / (pk + 1), exact."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb((p + 1) * k, k) // (p * k + 1)


def catalan(k: int) -> int:
    return fuss_catalan(1, k)
