"""Oracles: the brute-force and second routes that ``verify`` and the tests
hold the package's results against.

Each is one of the paper's objects built the long way, where the fast route
of another module uses an exact identity or a closed form:

* NC(n), non-crossing pairings and the alternating partitions of R-diagonal
  words by enumeration (``noncrossing.count_nc`` is the Catalan number);
* free cumulants as sums over NC(n): products as arguments, R-diagonal word
  moments, the cumulants of |lam - c|^2 by word expansion (``cumulants``
  and ``OperatorModel`` use the first-block identity);
* truncated formal power series, Lagrange inversion and the fixed-point
  inverse (``series`` solves the inverse's polynomial equation);
* the Cauchy transform of |lam - c|^2 by Aberth-Ehrlich roots and branch
  tracking (``circular.density`` takes the roots by Cardano), and the
  R-transform and moments of |lam - c|^2 by series and word expansion;
* the partition structure diagrams of Section 5, their enumeration, the
  quadrangulations and the compression bijection (``psd`` sums diagrams by
  a recursion over arcs without building one);
* the subordination functions, by the Illinois rule.

No CLI request reaches this module, and ``import freeprob.cli`` does not
load it.  ``verify.ORACLES`` names the entries that a test fences off every
request.  Each section keeps the code of the module it checks unchanged.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from numbers import Number
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ._record import FrozenRecord
from .circular import CircularSpectrum
from .cumulants import OrderCapError, cumulants_from_moments, free_moments_from_cumulants
from .noncrossing import EnumerationBoundError, catalan
from .psd import DiagramBoundError
from .series import _coerce_scalar, _is_zero

if TYPE_CHECKING:
    from .cumulants import OperatorModel
    from .ring import Poly

# ---------------------------------------------------------------------------
# Non-crossing partitions, pairings and alternating partitions (noncrossing)
# ---------------------------------------------------------------------------


ENUMERATION_BOUND = 18
PAIRING_BOUND = ENUMERATION_BOUND + 4


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


# ---------------------------------------------------------------------------
# Free cumulants as sums over NC(n) (cumulants)
# ---------------------------------------------------------------------------


DEFAULT_ORDER_CAP = 8


class LinComb(FrozenRecord):
    """Formal linear combination of letters; cumulants extend multilinearly."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[tuple[str, object], ...]):
        self.__dict__["parts"] = parts

    @staticmethod
    def of(mapping: Mapping[str, object]) -> "LinComb":
        return LinComb(tuple(sorted(mapping.items())))

    def items(self):
        return self.parts


def _letter_terms(letter):
    """Normalize a word entry to [(pure_letter, coefficient), ...]."""
    if isinstance(letter, LinComb):
        return list(letter.items())
    return [(letter, 1)]


class CumulantFunctional:
    """Multilinear free-cumulant functional given by a pure-word table.

    ``table`` maps tuples of pure letters to exact scalars; absent words have
    cumulant zero.  ``max_order`` caps the block sizes the functional is
    defined for.  Blocks whose size admits no non-zero table entry are pruned
    from partition sums.
    """

    def __init__(self, table: Mapping[tuple, object], max_order: int = DEFAULT_ORDER_CAP):
        self.table = dict(table)
        self.max_order = max_order
        self.nonzero_orders = sorted({len(w) for w, v in self.table.items() if v != 0})

    @classmethod
    def from_univariate(cls, letter: str, kappas: Sequence, max_order: int | None = None):
        """Single self-adjoint variable with cumulants kappa_1, kappa_2, ..."""
        max_order = max_order if max_order is not None else len(kappas)
        table = {
            (letter,) * (n + 1): kappas[n]
            for n in range(min(len(kappas), max_order))
        }
        return cls(table, max_order)

    @classmethod
    def circular(cls, max_order: int = DEFAULT_ORDER_CAP):
        """Standard circular letters c, c*: the only non-zero cumulants are
        kappa_2[c, c*] = kappa_2[c*, c] = 1."""
        return cls({("c", "c*"): Fraction(1), ("c*", "c"): Fraction(1)}, max_order)

    def block_cumulant(self, word: Sequence):
        """kappa_|word|[word], expanding linear-combination letters."""
        if len(word) > self.max_order:
            raise OrderCapError(
                f"cumulant order {len(word)} beyond declared maximum {self.max_order}"
            )
        total = 0
        stack = [((), 1)]
        for letter in word:
            new_stack = []
            for prefix, coeff in stack:
                for pure, c in _letter_terms(letter):
                    new_stack.append((prefix + (pure,), coeff * c))
            stack = new_stack
        for pure_word, coeff in stack:
            val = self.table.get(pure_word, 0)
            if val != 0:
                total = total + coeff * val
        return total


def kappa_pi(cf: CumulantFunctional, blocks, word: Sequence):
    """Product of block cumulants of ``word`` over the given blocks (1-based)."""
    prod = 1
    for block in blocks:
        val = cf.block_cumulant([word[i - 1] for i in block])
        if val == 0:
            return 0
        prod = prod * val
    return prod


def moment_from_cumulants(cf: CumulantFunctional, word: Sequence):
    """Mixed moment as the sum of kappa_pi over all of NC(len(word))."""
    n = len(word)
    if n > ENUMERATION_BOUND:
        raise EnumerationBoundError(f"word length {n} beyond enumeration bound {ENUMERATION_BOUND}")
    allowed = [s for s in cf.nonzero_orders if s <= n]
    total = 0
    for blocks in enumerate_nc_blocks(range(1, n + 1), allowed):
        total = total + kappa_pi(cf, blocks, word)
    return total


def product_cumulant(groups: IntervalPartition, cf: CumulantFunctional, word: Sequence):
    """kappa_n of grouped products: the sum of kappa_pi over pi in NC(|word|)
    whose join with the interval partition is the full partition."""
    n = len(word)
    if groups.total != n:
        raise ValueError(f"interval sizes total {groups.total} != word length {n}")
    allowed = [s for s in cf.nonzero_orders if s <= n]
    total = 0
    for blocks in enumerate_nc_blocks(range(1, n + 1), allowed):
        part = SetPartition.of(n, blocks)
        if not join_connects(part, groups):
            continue
        total = total + kappa_pi(cf, blocks, word)
    return total


def rdiag_moment(model: OperatorModel, pat: AlternationPattern):
    """Moment of the R-diagonal word given by ``pat``: the sum over alternating
    non-crossing partitions of products of determining cumulants.

    Zero when the pattern is unbalanced; the empty pattern gives phi(1) = 1.
    An enumeration oracle for ``verify`` and the tests; models are built and
    loaded through ``OperatorModel.aa_star_moments``.
    """
    if not pat.is_balanced():
        return Fraction(0)
    total = Fraction(0)
    zero_orders = {2 * (ell + 1) for ell, a in enumerate(model.alpha) if a == 0}
    for part in enumerate_alternating(pat):
        prod = Fraction(1)
        for block in part.blocks:
            size = len(block)
            if size in zero_orders:
                prod = Fraction(0)
                break
            prod *= model.alpha_at(size // 2)
        total += prod
    return total


# ---------------------------------------------------------------------------
# The shifted circular square modulus, combinatorial route (cumulants)
# ---------------------------------------------------------------------------


def _shift_letters(lam: Poly):
    """Letters of |lam - c|^2 = lam^2 + a1 + a2 with a1 = -lam(c + c*), a2 = c c*.

    Returns (word for a1, word for a2): a1 is a single combination letter,
    a2 expands to the two-letter product word (c, c*).
    """
    a1 = LinComb.of({"c": -lam, "c*": -lam})
    return (a1,), ("c", "c*")


def circular_shift_cumulants(max_n: int) -> list[Poly]:
    """Exact cumulant sequence of |lam - c|^2 as polynomials in lam.

    kappa_n is assembled by expanding multilinearly over all choice strings in
    {1, 2}^n and summing interval-connected partition cumulants of the
    expanded c / c* word.  The known closed form is 1 + n lam^2 for n >= 2 and
    1 + lam^2 for n = 1; tests assert this, the function does not.
    """
    from .ring import Poly

    lam = Poly.var("lam")
    out: list[Poly] = []
    for n in range(1, max_n + 1):
        total = sum(
            (shift_string_cumulant(string) for string in itertools.product((1, 2), repeat=n)),
            Poly(),
        )
        if n == 1:
            total = total + lam * lam  # the constant shift only moves the mean
        out.append(total)
    return out


def shift_string_cumulant(string: Sequence[int]) -> Poly:
    """Single choice-string contribution kappa_n[a_{i_1}, ..., a_{i_n}] in the
    circular-shift expansion; ``string`` entries are 1 or 2."""
    from .ring import Poly

    cf = CumulantFunctional.circular(max_order=2 * len(string))
    word1, word2 = _shift_letters(Poly.var("lam"))
    word: list = []
    sizes: list[int] = []
    for b in string:
        part = word2 if b == 2 else word1
        word.extend(part)
        sizes.append(len(part))
    if len(word) > ENUMERATION_BOUND:
        raise EnumerationBoundError("expansion exceeds enumeration bound")
    return Poly.coerce(product_cumulant(IntervalPartition.of(sizes), cf, word))


# ---------------------------------------------------------------------------
# Truncated formal power series and their inversion (series)
# ---------------------------------------------------------------------------


def _binom_half(ell: int) -> Fraction:
    """Generalized binomial coefficient binom(1/2, ell), exact."""
    num = Fraction(1)
    half = Fraction(1, 2)
    for j in range(ell):
        num *= half - j
    return num / math.factorial(ell)


class FormalSeries:
    """Coefficients c_0..c_order of a truncated power series.

    ``parity`` is 'even', 'odd', or None and is validated at construction.
    """

    __slots__ = ("coeffs", "order", "parity")

    def __init__(self, coeffs: Sequence, order: int | None = None, parity: str | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        self.coeffs = coeffs[: order + 1]
        self.order = order
        self.parity = parity
        if parity == "odd":
            bad = [k for k in range(0, order + 1, 2) if not _is_zero(self.coeffs[k])]
            if bad:
                raise ValueError(f"odd series has even-index coefficients at {bad}")
        elif parity == "even":
            bad = [k for k in range(1, order + 1, 2) if not _is_zero(self.coeffs[k])]
            if bad:
                raise ValueError(f"even series has odd-index coefficients at {bad}")
        elif parity is not None:
            raise ValueError("parity must be 'even', 'odd', or None")

    # -- basics --------------------------------------------------------------

    def coefficient(self, k: int):
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[k] == other.coeffs[k] for k in range(n + 1))

    def __repr__(self):
        body = ", ".join(repr(c) for c in self.coeffs[: min(6, self.order + 1)])
        return f"FormalSeries([{body}, ...], order={self.order})"

    @staticmethod
    def identity(order: int) -> "FormalSeries":
        coeffs = [0] * (order + 1)
        if order >= 1:
            coeffs[1] = 1
        return FormalSeries(coeffs, order, parity="odd")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        order = min(self.order, other.order)
        coeffs = [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)]
        parity = self.parity if self.parity == other.parity else None
        return FormalSeries(coeffs, order, parity)

    def __neg__(self) -> "FormalSeries":
        return FormalSeries([-c for c in self.coeffs], self.order, self.parity)

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def scale(self, factor) -> "FormalSeries":
        return FormalSeries([c * factor for c in self.coeffs], self.order, self.parity)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if _is_zero(a):
                continue
            for j in range(0, order + 1 - i):
                b = other.coeffs[j]
                if _is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        parity = None
        if self.parity and other.parity:
            parity = "even" if self.parity == other.parity else "odd"
        return FormalSeries(out, order, parity)

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(z)); requires inner(0) = 0."""
        if not _is_zero(inner.coeffs[0]):
            raise ValueError("composition needs inner constant term 0")
        order = min(self.order, inner.order)
        acc = FormalSeries([0] * (order + 1), order)
        pw = FormalSeries([1], order)
        for k in range(order + 1):
            c = self.coeffs[k] if k <= self.order else 0
            if not _is_zero(c):
                acc = acc + pw.scale(c)
            if k < order:
                pw = pw * inner
        return acc

    def reciprocal(self) -> "FormalSeries":
        """1 / self; constant term must be an invertible scalar or unit Poly."""
        c0 = self.coeffs[0]
        inv0 = _invert_unit(c0)
        out = [inv0] + [0] * self.order
        for k in range(1, self.order + 1):
            s = 0
            for j in range(1, k + 1):
                cj = self.coeffs[j]
                if _is_zero(cj):
                    continue
                s = s + cj * out[k - j]
            out[k] = -inv0 * s
        return FormalSeries(out, self.order)


def _invert_unit(c):
    if not isinstance(c, Number):  # a ring.Poly
        if not c.is_constant():
            raise ZeroDivisionError("series constant term is a non-constant polynomial")
        c = c.constant_value()
    if c == 0:
        raise ZeroDivisionError("series constant term is zero")
    return Fraction(1) / Fraction(c) if isinstance(c, (int, Fraction)) else 1.0 / c


def _divide_by_int(c, k: int):
    if isinstance(c, float):
        return c / k
    if not isinstance(c, Number):  # a ring.Poly
        return c * Fraction(1, k)
    return Fraction(c) / k


def sqrt_one_plus(c, order: int) -> FormalSeries:
    """sqrt(1 + c z^2) as a truncated even series via the binomial expansion."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * (order + 1)
    ell = 0
    while 2 * ell <= order:
        coeffs[2 * ell] = _binom_half(ell) * c**ell
        ell += 1
    return FormalSeries(coeffs, order, parity="even")


def negative_root_shift(lam_sq, order: int) -> FormalSeries:
    """(1 - sqrt(1 + 4 lam_sq z^2)) / (2 z) as an odd truncated series.

    Leading coefficients: -lam^2 z + lam^4 z^3 - 2 lam^6 z^5 - ...
    """
    root = sqrt_one_plus(4 * _coerce_scalar(lam_sq), order + 1)
    coeffs = [0] * (order + 1)
    for k in range(1, order + 1, 2):
        coeffs[k] = _divide_by_int(-root.coeffs[k + 1], 2)
    return FormalSeries(coeffs, order, parity="odd")


def negative_root_shift_catalan(lam_sq, order: int) -> FormalSeries:
    """Same series via signed Catalan numbers; cross-check of the binomial form."""
    coeffs = [0] * (order + 1)
    ell = 1
    while 2 * ell - 1 <= order:
        sign = -1 if ell % 2 else 1
        coeffs[2 * ell - 1] = sign * catalan(ell - 1) * _coerce_scalar(lam_sq) ** ell
        ell += 1
    return FormalSeries(coeffs, order, parity="odd")


def lagrange_invert(f: FormalSeries) -> FormalSeries:
    """Compositional inverse of f with f(0) = 0, f'(0) invertible.

    Coefficient k of the inverse is Res(f^{-k}, 0) / k, computed as the
    z^{k-1} coefficient of (z / f)^k.
    """
    if not _is_zero(f.coeffs[0]):
        raise ValueError("inversion needs f(0) = 0")
    order = f.order
    u = FormalSeries(f.coeffs[1:], order - 1)  # f / z
    inv_u = u.reciprocal()  # (z / f)
    out = [0] * (order + 1)
    pw = FormalSeries([1], order - 1)
    for k in range(1, order + 1):
        pw = pw * inv_u
        out[k] = _divide_by_int(pw.coefficient(k - 1), k)
    parity = "odd" if f.parity == "odd" else None
    return FormalSeries(out, order, parity)


def invert_by_iteration(f: FormalSeries) -> FormalSeries:
    """Inverse by fixed-point refinement; independent oracle for lagrange_invert."""
    if not _is_zero(f.coeffs[0]):
        raise ValueError("inversion needs f(0) = 0")
    order = f.order
    inv_f1 = _invert_unit(f.coeffs[1])
    g = FormalSeries.identity(order).scale(inv_f1)
    ident = FormalSeries.identity(order)
    for _ in range(order + 1):
        residual = f.compose(g) - ident
        g = g - residual.scale(inv_f1)
    return g


def rescaled_inverse_cauchy(mu_kappas: Sequence, lam_sq, order: int) -> FormalSeries:
    """Unit-slope rescaling of the inverse-Cauchy series.

    With b_{2l-1} = kappa_{2l}(mu) + (-1)^l Catalan(l-1) lam^{2l} the rescaled
    coefficients are f_1 = 1 and f_{2j+1} = -b_{2j+1} (lam^2-1)^{j-1}; only
    integer powers of (lam^2 - 1) appear, so the result stays in the ring.
    """
    m = _coerce_scalar(lam_sq) - 1
    coeffs = [0] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1) if not isinstance(m, float) else 1.0
    for j in range(1, (order - 1) // 2 + 1):
        ell = j + 1
        kap = mu_kappas[ell - 1] if ell - 1 < len(mu_kappas) else 0
        sign = -1 if ell % 2 else 1
        b = kap + sign * catalan(ell - 1) * _coerce_scalar(lam_sq) ** ell
        coeffs[2 * j + 1] = -b * m ** (j - 1)
    return FormalSeries(coeffs, order, parity="odd")


# ---------------------------------------------------------------------------
# Cauchy transform by Aberth-Ehrlich roots + branch tracking (circular)
# ---------------------------------------------------------------------------


TRACKING_STEPS = 48  # root-tracking steps from the far anchor to w in cauchy_transform


class BranchError(ValueError):
    """Cauchy transform requested on the support where no branch is defined."""


def _cubic_roots(m: float, w: complex, start=None) -> list[complex]:
    """Roots of p(z) = z^3 - 2 z^2 + (1 - m/w) z - 1/w = 0 by the
    Aberth-Ehrlich iteration on complex floats.

    Each sweep moves every root z_k, in turn, by the Newton step of p divided
    by the other approximations, z_k -= p / (p' - p sum_{j != k} 1/(z_k - z_j)),
    which converges cubically to simple roots; it stops once the largest step
    is at most 1e-13 of its root.  ``start`` is three distinct approximations
    (the roots at a nearby w: then at most 4 sweeps are needed); without it
    the iteration starts on a circle about the roots' centroid 2/3 whose
    radius is Cauchy's bound on their moduli, one plus the largest
    coefficient (at most 12 sweeps).  At a double root (w at a support
    endpoint) rounding keeps the steps from shrinking, and the iteration ends
    after 50 sweeps with the roots as close as floats resolve them.
    """
    c1, c0 = 1.0 - m / w, -1.0 / w
    radius = 1.0 + max(2.0, abs(c1), abs(c0))
    roots = list(start or [2.0 / 3.0 + radius * complex(math.cos(a), math.sin(a)) for a in (0.4, 2.5, 4.6)])
    for _ in range(50):
        largest = 0.0
        for k, z in enumerate(roots):
            p = ((z - 2.0) * z + c1) * z + c0
            pull = 1.0 / (z - roots[k - 1]) + 1.0 / (z - roots[k - 2])  # the other two roots
            step = p / ((3.0 * z - 4.0) * z + c1 - p * pull)
            roots[k] = z - step
            largest = max(largest, abs(step) / abs(z))
        if largest <= 1e-13:
            break
    return roots


def _nearest(roots, target: complex) -> complex:
    return min(roots, key=lambda r: abs(r - target))


def cauchy_transform(w: complex, lam: float) -> complex:
    """G_m(w) for w off the support [s-, s+].

    Branch selection: start at an anchor far from the support where the root
    closest to 1/w is unambiguous (G ~ 1/w at infinity), then track the
    nearest root along a straight ray from the anchor to w.  Ties at the
    target resolve toward non-positive imaginary part.
    """
    spec = CircularSpectrum.at(lam)
    w = complex(w)
    if w == 0:
        raise BranchError("w = 0 is not in the domain")
    if abs(w.imag) < 1e-300 and spec.s_minus <= w.real <= spec.s_plus:
        raise BranchError(f"w = {w} lies on the support [{spec.s_minus}, {spec.s_plus}]")
    far = 12.0 * max(spec.s_plus, 1.0)
    if abs(w) >= far:
        return _nearest(_cubic_roots(spec.m, w), 1.0 / w)
    # anchor far above (below) the real axis on the same side as w
    sign = 1.0 if w.imag >= 0 else -1.0
    anchor = complex(w.real, sign * far)
    roots = _cubic_roots(spec.m, anchor)
    z = _nearest(roots, 1.0 / anchor)
    for i in range(1, TRACKING_STEPS + 1):
        frac = 1.0 - (1.0 - i / TRACKING_STEPS) ** 2  # refine toward the endpoint
        # warm start: each step moves the roots a little
        roots = _cubic_roots(spec.m, anchor + (w - anchor) * frac, roots)
        z = _nearest(roots, z)
    return z


# ---------------------------------------------------------------------------
# The R-transform identity, analytic (series) route (circular)
# ---------------------------------------------------------------------------


def shift_r_transform_coefficients(max_n: int) -> list[Poly]:
    """Cumulants of |lam - c|^2 derived analytically, as polynomials in lam.

    Pipeline: the symmetrized modulus of the shift has R-series
    z + (sqrt(1 + 4 lam^2 z^2) - 1)/(2z); its free moments push forward under
    squaring (even moments only) to the square modulus, whose cumulants then
    drop out of the triangular moment solve.
    """
    from .ring import Poly

    lam = Poly.var("lam")
    lam_sq = lam * lam
    # R-series of the symmetrized shifted modulus: semicircle part z plus the
    # positive-root shift term (the negative-root form with opposite sign);
    # kappa_n of that modulus is the z^{n-1} coefficient.
    shift = negative_root_shift(lam_sq, 2 * max_n - 1)
    kappas_mu: list[Poly] = []
    for n in range(1, 2 * max_n + 1):
        j = n - 1
        coeff = -Poly.coerce(shift.coeffs[j]) if j <= shift.order else Poly()
        if n == 2:
            coeff = coeff + 1
        kappas_mu.append(coeff)
    moments_mu = free_moments_from_cumulants(kappas_mu)
    # squaring pushes the modulus forward onto |lam - c|^2: m_n = m_{2n}(mu)
    even = [moments_mu[2 * n - 1] for n in range(1, max_n + 1)]
    return cumulants_from_moments(even)


# ---------------------------------------------------------------------------
# Moments of |lam - c|^2 by direct word expansion (circular)
# ---------------------------------------------------------------------------


def shift_square_modulus_moment(n: int, lam):
    """phi(|lam - c|^{2n}) by expanding ((lam - c)(lam - c*))^n into traces of
    c / c* words and evaluating each combinatorially."""
    cf = CumulantFunctional.circular(max_order=2 * n)
    letters = ["c", "c*"] * n
    total = 0
    for bits in range(2 ** (2 * n)):
        word = []
        coeff = 1
        for pos in range(2 * n):
            if (bits >> pos) & 1:
                word.append(letters[pos])
                coeff = -coeff
            else:
                coeff = coeff * lam
        total = total + (coeff * moment_from_cumulants(cf, word) if word else coeff)
    return total


# ---------------------------------------------------------------------------
# Partition structure diagrams: polygons, enumeration, tilings (psd)
# ---------------------------------------------------------------------------


ENUMERATION_K_BOUND = 4  # enumerate_psd(4) builds 6,550,528 diagrams in about 16 s
QUADRANGULATION_K_BOUND = 6

Polygon = tuple[int, ...]  # sorted vertex indices


def _is_alternating_polygon(vertices: Polygon, n_vertices: int) -> bool:
    if len(vertices) < 2 or len(vertices) % 2:
        return False
    if any(not (0 <= v < n_vertices) for v in vertices):
        return False
    if list(vertices) != sorted(set(vertices)):
        return False
    parities = [v % 2 for v in vertices]
    return all(parities[i] != parities[(i + 1) % len(parities)] for i in range(len(parities)))


def polygons_on(n_vertices: int) -> list[Polygon]:
    """All alternating polygons on the disc with the given vertex count."""
    out: list[Polygon] = []

    def extend(prefix: list[int], start: int):
        if len(prefix) >= 2 and len(prefix) % 2 == 0:
            if prefix[0] % 2 != prefix[-1] % 2:  # cyclic closure alternates
                out.append(tuple(prefix))
        for v in range(start, n_vertices):
            if prefix and v % 2 == prefix[-1] % 2:
                continue
            extend(prefix + [v], v + 1)

    extend([], 0)
    return sorted(out, key=lambda p: (len(p), p))


def compatible(p: Polygon, q: Polygon) -> bool:
    """Zero-area intersection test for two distinct inscribed polygons."""
    if p == q:
        return False
    return _fits_in_gap(p, q) or _fits_in_gap(q, p)


def _fits_in_gap(p: Polygon, q: Polygon) -> bool:
    """True if all of q lies in one closed cyclic gap [p_i, p_{i+1}] of p."""
    r = len(p)
    for i in range(r):
        lo, hi = p[i], p[(i + 1) % r]
        if all(_in_closed_arc(v, lo, hi) for v in q):
            return True
    return False


def _in_closed_arc(v: int, lo: int, hi: int) -> bool:
    """v lies on the cyclic arc from lo to hi (inclusive), going upward."""
    if lo <= hi:
        return lo <= v <= hi
    return v >= lo or v <= hi


class PolygonDiagram(FrozenRecord):
    """A set of pairwise compatible polygons on 2(k+1) disc vertices."""

    _fields = ("k", "polygons")

    def __init__(self, k: int, polygons: tuple[Polygon, ...]):
        self.__dict__.update(k=k, polygons=polygons)

    @staticmethod
    def of(k: int, polygons) -> "PolygonDiagram":
        n_vertices = 2 * (k + 1)
        polys = tuple(sorted((tuple(p) for p in polygons), key=lambda p: (len(p), p)))
        if len(set(polys)) != len(polys):
            raise ValueError("polygons must be distinct; use labels for multiplicity")
        for p in polys:
            if not _is_alternating_polygon(p, n_vertices):
                raise ValueError(f"not an alternating polygon on {n_vertices} vertices: {p}")
        for i, p in enumerate(polys):
            for q in polys[i + 1:]:
                if not compatible(p, q):
                    raise ValueError(f"polygons overlap with positive area: {p} vs {q}")
        return PolygonDiagram(k, polys)

    def profile(self) -> tuple[int, ...]:
        """(s_1, ..., s_{k+1}): counts of 2-gons, 4-gons, ..."""
        out = [0] * (self.k + 1)
        for p in self.polygons:
            out[len(p) // 2 - 1] += 1
        return tuple(out)


class LabeledDiagram(FrozenRecord):
    """Diagram with positive integer labels; non-degenerate polygons get 1."""

    _fields = ("diagram", "labels")

    def __init__(self, diagram: PolygonDiagram, labels: tuple[int, ...]):
        self.__dict__.update(diagram=diagram, labels=labels)  # labels parallel to diagram.polygons

    @staticmethod
    def of(diagram: PolygonDiagram, labels) -> "LabeledDiagram":
        labels = tuple(int(x) for x in labels)
        if len(labels) != len(diagram.polygons):
            raise ValueError("one label per polygon")
        for poly, label in zip(diagram.polygons, labels):
            if label < 1:
                raise ValueError("labels are positive (absent polygons are not stored)")
            if len(poly) > 2 and label != 1:
                raise ValueError("non-degenerate polygons must carry label 1")
        return LabeledDiagram(diagram, labels)

    def vertex_degrees(self) -> list[int]:
        """Label-weighted vertex degrees = run lengths of the preimage word."""
        deg = [0] * (2 * (self.diagram.k + 1))
        for poly, label in zip(self.diagram.polygons, self.labels):
            for v in poly:
                deg[v] += label
        return deg

    def profile(self) -> tuple[int, ...]:
        """Label-weighted block profile (p_1, ..., p_{k+1}) of the preimage."""
        out = [0] * (self.diagram.k + 1)
        for poly, label in zip(self.diagram.polygons, self.labels):
            out[len(poly) // 2 - 1] += label
        return tuple(out)

    def epsilon(self) -> int:
        """Sum of label * polygon size = word length of the preimage."""
        return sum(label * len(poly) for poly, label in zip(self.diagram.polygons, self.labels))


@lru_cache(maxsize=None)
def _diagram_universe(k: int) -> tuple[list[Polygon], list[set[int]]]:
    polys = polygons_on(2 * (k + 1))
    compat = [set() for _ in polys]
    for i, p in enumerate(polys):
        for j in range(i + 1, len(polys)):
            if compatible(p, polys[j]):
                compat[i].add(j)
    return polys, compat


def enumerate_psd(k: int):
    """All partition structure diagrams on 2(k+1) vertices, empty one included."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > ENUMERATION_K_BOUND:
        raise DiagramBoundError(f"diagram enumeration bound is k <= {ENUMERATION_K_BOUND}")
    polys, compat = _diagram_universe(k)
    n = len(polys)
    chosen: list[int] = []

    def rec(start: int, feasible: set[int]):
        yield tuple(chosen)
        for i in range(start, n):
            if i not in feasible:
                continue
            chosen.append(i)
            yield from rec(i + 1, feasible & compat[i])
            chosen.pop()

    for idx_tuple in rec(0, set(range(n))):
        yield PolygonDiagram(k, tuple(polys[i] for i in idx_tuple))


def quadrangulations(k: int) -> list[frozenset[Polygon]]:
    """All 4-gon tilings of the 2(k+1)-gon, each as its set of segments."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > QUADRANGULATION_K_BOUND:
        raise DiagramBoundError(f"quadrangulation bound is k <= {QUADRANGULATION_K_BOUND}")
    n_vertices = 2 * (k + 1)
    if k == 0:
        return [frozenset({(0, 1)})]

    def tile(region: tuple[int, ...]):
        """Sets of quads tiling the sub-polygon with the given vertex cycle.

        Recursion on the quad containing the edge (region[0], region[1]); its
        two remaining corners split the rest into three even sub-regions.
        """
        if len(region) == 2:
            yield []
            return
        a0, a1 = region[0], region[1]
        m = len(region)
        for i in range(2, m - 1):
            for j in range(i + 1, m):
                quad = (a0, a1, region[i], region[j])
                r1 = region[1 : i + 1]
                r2 = region[i : j + 1]
                r3 = region[j:] + (a0,)
                if len(r1) % 2 or len(r2) % 2 or len(r3) % 2:
                    continue
                for t1 in tile(r1):
                    for t2 in tile(r2):
                        for t3 in tile(r3):
                            yield [quad] + t1 + t2 + t3

    out: set[frozenset[Polygon]] = set()
    for quads in tile(tuple(range(n_vertices))):
        segments: set[tuple[int, int]] = set()
        for quad in quads:
            cyc = sorted(quad)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                segments.add(tuple(sorted((a, b))))
        out.add(frozenset(tuple(sorted(seg)) for seg in segments))
    return sorted(out, key=sorted)


# ---------------------------------------------------------------------------
# Compression bijection (psd)
# ---------------------------------------------------------------------------


def compress(pat: AlternationPattern, part: SetPartition) -> LabeledDiagram:
    """Project an alternating non-crossing partition onto the run disc.

    Each block maps to the polygon of runs it meets; identical 2-gons merge
    with their multiplicity recorded in the label.  Profile is preserved.
    """
    _require_alternating_member(pat, part)
    run_of = pat.run_of_position()
    counts: dict[Polygon, int] = {}
    for block in part.blocks:
        poly = tuple(sorted({run_of[i - 1] for i in block}))
        if len(poly) != len(block):
            raise ValueError("block meets a run twice; not an alternating member")
        counts[poly] = counts.get(poly, 0) + 1
    for poly, label in counts.items():
        if len(poly) > 2 and label != 1:
            raise AssertionError("non-degenerate polygon compressed twice; crossing input")
    k = len(pat.runs) // 2 - 1
    diagram = PolygonDiagram.of(k, tuple(counts))
    return LabeledDiagram.of(diagram, tuple(counts[p] for p in diagram.polygons))


def _require_alternating_member(pat: AlternationPattern, part: SetPartition) -> None:
    if part.n != pat.word_length:
        raise ValueError("partition size does not match the pattern word length")
    letters = pat.letters()
    for block in part.blocks:
        if len(block) % 2:
            raise ValueError("blocks of alternating partitions have even size")
        for a, b in zip(block, block[1:]):
            if letters[a - 1] == letters[b - 1]:
                raise ValueError("block letters do not alternate")
    if not is_noncrossing(part):
        raise ValueError("partition is crossing")


def decompress(lp: LabeledDiagram) -> tuple[AlternationPattern, SetPartition]:
    """The unique alternating non-crossing preimage of a labeled diagram.

    Run lengths are the label-weighted vertex degrees.  Word positions inside
    each run are handed to the incident polygon corners in angular order:
    polygons sort by the span of their remaining vertices as seen from the
    run (nearer the backward boundary direction = earlier position), and
    copies of one chord pair anti-diagonally, which nests them.
    """
    diagram, labels = lp.diagram, lp.labels
    n_vertices = 2 * (diagram.k + 1)
    degrees = lp.vertex_degrees()
    starts = [0] * n_vertices
    acc = 0
    for v in range(n_vertices):
        starts[v] = acc
        acc += degrees[v]

    copies = []  # (polygon index, copy index)
    for idx, (poly, label) in enumerate(zip(diagram.polygons, labels)):
        for c in range(label):
            copies.append((idx, c))

    # slot assignment per vertex
    slot_of: dict[tuple[int, int, int], int] = {}  # (poly idx, copy, vertex) -> 1-based word position
    for v in range(n_vertices):
        incident = [
            (pi, c) for (pi, c) in copies if v in diagram.polygons[pi]
        ]

        def sort_key(item):
            pi, c = item
            poly = diagram.polygons[pi]
            others = [(v - u) % n_vertices for u in poly if u != v]
            lo, hi = min(others), max(others)
            # identical chords tie; anti-order the copies at the larger endpoint
            anti = c if v == min(poly) else -c
            return (lo, hi, anti)

        incident.sort(key=sort_key)
        for slot, (pi, c) in enumerate(incident):
            slot_of[(pi, c, v)] = starts[v] + slot + 1

    blocks = []
    for pi, c in copies:
        poly = diagram.polygons[pi]
        blocks.append(tuple(sorted(slot_of[(pi, c, v)] for v in poly)))
    runs = tuple(degrees)
    pat = AlternationPattern.of(runs)
    if not blocks:
        return pat, SetPartition(0, ())
    part = SetPartition.of(pat.word_length, blocks)
    _require_alternating_member(pat, part)  # the bijection guarantees this
    return pat, part


# ---------------------------------------------------------------------------
# Subordination functions (resolvent)
# ---------------------------------------------------------------------------


class BracketError(RuntimeError):
    """Root bracketing failed within the expansion budget."""


def _illinois(f, lo: float, hi: float, f_hi: float | None = None) -> float:
    """Root of f on a sign-changing bracket by the Illinois rule.

    Each step replaces one end by the secant point, so the bracket always
    holds a sign change; an end kept twice in a row has its value halved,
    which stops regula falsi from stalling on one side.  It runs to float
    resolution and returns the point of smallest |f| it evaluated.
    A secant point that is not strictly inside the bracket (it rounded onto
    an end) is replaced by the midpoint, so a flat or steep f cannot stop the
    search on a wide bracket; the search stops when the midpoint itself
    equals an end.  ``f_hi``, when given, is f(hi) already evaluated by the
    caller.
    """
    flo = f(lo)
    fhi = f(hi) if f_hi is None else f_hi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f = {flo}, {fhi}")
    kept = 0  # -1 when lo was kept by the last step, +1 when hi was
    best = min((abs(flo), lo), (abs(fhi), hi))
    for _ in range(200):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x == lo or x == hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        best = min(best, (abs(fx), x))
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
    return best[1]


def h_function(meas, s: float) -> float:
    """h(s) = s * integral (t + s^2)^-1 against the a a* distribution."""
    if s <= 0:
        raise ValueError("requires s > 0")
    s2 = s * s
    return s * meas.integrate(lambda t: 1.0 / (t + s2))


def h_equation_residual(model, lam: float, t: float, s: float) -> float:
    """Residual of the defining equation (s - t)(1/h(s) - s + t) - lam^2."""
    h = h_function(model.aa_star_measure, s)
    return (s - t) * (1.0 / h - s + t) - lam * lam


def solve_subordination(model, lam: float, t: float) -> float:
    """The unique s in (t, inf) with (s - t)(1/h(s) - s + t) = lam^2.

    The left side is 0 at s = t and grows like t * s for large s, so a
    geometric expansion of the upper endpoint always brackets the root.
    """
    if lam <= 0 or t <= 0:
        raise ValueError("requires lam > 0 and t > 0")
    if model.aa_star_measure is None:
        raise ValueError("model supplies no a a* measure")

    def g(s: float) -> float:
        return h_equation_residual(model, lam, t, s)

    lo = t * (1.0 + 1e-12) + 1e-300
    hi = max(2.0 * t, 1.0)
    for _ in range(200):
        g_hi = g(hi)
        if g_hi >= 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError(f"no bracket for lam={lam}, t={t} within 200 doublings")
    return _illinois(g, lo, hi, g_hi)


def h_lambda(model, lam: float, t: float) -> float:
    """h_lam(t) = h(s(lam, t)); |lam - a|'s subordinated transform on i R_+."""
    s_root = solve_subordination(model, lam, t)
    return h_function(model.aa_star_measure, s_root)
