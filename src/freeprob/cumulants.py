"""Free cumulant calculus over non-crossing partitions.

Provides the moment <-> cumulant conversions, cumulants with products as
arguments (sums restricted by the interval-join condition), moments of
R-diagonal words from their determining cumulant sequence, and the symbolic
cumulant sequence of the shifted circular square modulus |lam - c|^2.

Scalars are exact: Fractions, or ring.Poly for symbolic identities.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from . import noncrossing as nc
from ._record import FrozenRecord, Record

if TYPE_CHECKING:
    from .ring import Poly

DEFAULT_ORDER_CAP = 8


class OrderCapError(ValueError):
    """A cumulant beyond the declared maximum order was requested."""


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
    if n > nc.ENUMERATION_BOUND:
        raise nc.EnumerationBoundError(f"word length {n} beyond enumeration bound {nc.ENUMERATION_BOUND}")
    allowed = [s for s in cf.nonzero_orders if s <= n]
    total = 0
    for blocks in nc.enumerate_nc_blocks(range(1, n + 1), allowed):
        total = total + kappa_pi(cf, blocks, word)
    return total


def _first_block_rows(m: list):
    """Yield, for n = 1, 2, ..., the row [z^{n-s}] M(z)^s, s = 1 .. n, where
    M(z) = sum_j m_j z^j (m_0 = 1); row n reads only m_0 .. m_{n-1}, so the
    caller may append m_n before asking for the next row.  The powers M^s are
    kept running, one new coefficient each per row: O(K^3) for K rows."""
    powers: list[list] = []  # powers[s - 2] = [z^0 ..] M^s
    for n in itertools.count(1):
        if n > 1:
            powers.append([])
        row, below = [m[n - 1]], m
        for s, power in enumerate(powers, start=2):
            j = n - s
            power.append(sum(m[i] * below[j - i] for i in range(j + 1) if m[i] != 0))
            row.append(power[-1])
            below = power
        yield row


def free_moments_from_cumulants(kappas: Sequence) -> list:
    """Moments m_1..m_K of a single variable with free cumulants kappa_1..kappa_K.

    First-block identity M(z) = 1 + sum_s kappa_s z^s M(z)^s: the first block
    of a partition in NC(n) has some size s and its s gaps hold arbitrary
    partitions, so m_n = sum_s kappa_s [z^{n-s}] M(z)^s; exact in any ring.
    """
    m = [1]  # m_0
    for _, row in zip(kappas, _first_block_rows(m)):
        m.append(sum(k * c for k, c in zip(kappas, row) if k != 0))
    return m[1:]


def cumulants_from_moments(moments: Sequence) -> list:
    """Free cumulants kappa_1..kappa_K from moments m_1..m_K: the same
    identity solved for its s = n term, kappa_n.

    Round-trips exactly with free_moments_from_cumulants.
    """
    kappas: list = []
    for moment, row in zip(moments, _first_block_rows([1] + list(moments))):
        kappas.append(moment - sum(k * c for k, c in zip(kappas, row) if k != 0))
    return kappas


def product_cumulant(groups: nc.IntervalPartition, cf: CumulantFunctional, word: Sequence):
    """kappa_n of grouped products: the sum of kappa_pi over pi in NC(|word|)
    whose join with the interval partition is the full partition."""
    n = len(word)
    if groups.total != n:
        raise ValueError(f"interval sizes total {groups.total} != word length {n}")
    allowed = [s for s in cf.nonzero_orders if s <= n]
    total = 0
    for blocks in nc.enumerate_nc_blocks(range(1, n + 1), allowed):
        part = nc.SetPartition.of(n, blocks)
        if not nc.join_connects(part, groups):
            continue
        total = total + kappa_pi(cf, blocks, word)
    return total


# ---------------------------------------------------------------------------
# R-diagonal models
# ---------------------------------------------------------------------------


class OperatorModel(Record):
    """An R-diagonal operator described by its determining cumulants.

    alpha[l-1] holds the order-2l alternating cumulant alpha_l of the
    operator; the normalization fixes alpha_1 = 1.  ``alpha_at`` reads alpha
    past the stored order.  Optionally carries a spectral measure for a a*.

    alpha is also the even free-cumulant sequence of mu, the symmetrization
    of |a|: kappa_{2n}(mu) = alpha_n (Nica-Speicher, Lecture 15;
    Haagerup-Larsen 2000).  mu is symmetric, so its odd cumulants vanish and
    phi((a a*)^n) = m_{2n}(mu) is the sum over the non-crossing partitions
    of [2n] with only even blocks of the products of kappa_{|V|}(mu).  In
    such a partition every block alternates a / a* (the gap between two
    consecutive elements of a block is a union of even blocks), so the
    moment is also the same sum with alpha_{|V|/2} as weights.  The
    one-block partition is the top term of both sums, and induction on n
    gives equality.  So R_mu has the coefficients alpha, and no second copy
    is stored.
    """

    _fields = ("name", "alpha", "aa_star_measure", "r_mu_closed_form")

    def __init__(self, name: str, alpha: tuple[Fraction, ...], aa_star_measure: object | None = None,
                 r_mu_closed_form: bool = False):
        self.name = name
        self.alpha = tuple(Fraction(a) for a in alpha)
        self.aa_star_measure = aa_star_measure
        self.r_mu_closed_form = r_mu_closed_form  # alpha is zero past its stored order
        if not self.alpha or self.alpha[0] != 1:
            raise ValueError("normalization requires alpha_1 = 1")

    @property
    def order(self) -> int:
        return len(self.alpha)

    @property
    def v(self) -> Fraction:
        """Fourth-moment variance statistic: ||a||_4^4 - 1 = alpha_2 + 1."""
        return self.alpha_at(2) + 1

    @cached_property
    def r_mu_floats(self) -> tuple[float, ...]:
        """alpha as floats, trailing zeros dropped: the coefficients of
        R_mu(z) = sum alpha_n z^{2n-1} for the floating-point routes."""
        floats = [float(a) for a in self.alpha]
        while floats[-1] == 0.0:
            floats.pop()
        return tuple(floats)

    def alpha_at(self, n: int) -> Fraction:
        """alpha_n: the stored value; 0 past the stored order when
        ``r_mu_closed_form`` is set; OrderCapError otherwise."""
        if 1 <= n <= len(self.alpha):
            return self.alpha[n - 1]
        if n > len(self.alpha) and self.r_mu_closed_form:
            return Fraction(0)
        raise OrderCapError(f"alpha_{n} not supplied (order {len(self.alpha)})")

    def _graded_aa_star_moments(self) -> tuple[list[int], int]:
        """(M, d): the integers M_n = phi((a a*)^n) d^n for n = 1..order, with
        d the lcm of alpha's denominators.

        The free cumulants of a a* are the moment-type sums of alpha over
        NC(n) (Nica-Speicher, Lectures 11 and 15), so the moment map applies
        twice.  Each pass is homogeneous of weight n (the blocks of a
        partition of [n] have sizes summing to n), so feeding it the integers
        alpha_s d^s gives kappa_n(a a*) d^n, and feeding those gives M_n: no
        Fraction is normalised on the way.
        """
        d = math.lcm(*(a.denominator for a in self.alpha))
        scaled, power = [], 1
        for a in self.alpha:
            power *= d
            scaled.append(a.numerator * (power // a.denominator))
        return free_moments_from_cumulants(free_moments_from_cumulants(scaled)), d

    def aa_star_moments(self) -> list[Fraction]:
        """phi((a a*)^n) for n = 1..order, each reduced once from M_n / d^n."""
        moments, d = self._graded_aa_star_moments()
        out, scale = [], 1
        for moment in moments:
            scale *= d
            out.append(Fraction(moment, scale))
        return out

    def check_measure_consistency(self):
        """Moments of the attached a a* measure must match the alpha route.

        ``M_n / d**n`` is CPython's correctly rounded int division, the same
        float as ``float(Fraction(M_n, d**n))`` (notes/decisions.md).
        """
        if self.aa_star_measure is None:
            return
        moments, d = self._graded_aa_star_moments()
        scale = 1
        for n, moment in enumerate(moments, start=1):
            scale *= d
            combinatorial = moment / scale
            measured = self.aa_star_measure.moment(n)
            if abs(measured - combinatorial) > 1e-6 * max(1.0, abs(combinatorial)):
                raise ValueError(
                    f"{self.name}: phi((aa*)^{n}) mismatch "
                    f"measure={measured!r} cumulants={combinatorial!r}"
                )


def rdiag_moment(model: OperatorModel, pat: nc.AlternationPattern):
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
    for part in nc.enumerate_alternating(pat):
        prod = Fraction(1)
        for block in part.blocks:
            size = len(block)
            if size in zero_orders:
                prod = Fraction(0)
                break
            prod *= model.alpha_at(size // 2)
        total += prod
    return total


def alpha_from_aa_star_moments(moments: Sequence[Fraction]) -> list[Fraction]:
    """Determining cumulants from phi((a a*)^n): the free cumulants of the
    free cumulants of a a*.  Inverts OperatorModel.aa_star_moments exactly."""
    return cumulants_from_moments(cumulants_from_moments([Fraction(m) for m in moments]))


# ---------------------------------------------------------------------------
# The shifted circular square modulus, combinatorial route
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
    if len(word) > nc.ENUMERATION_BOUND:
        raise nc.EnumerationBoundError("expansion exceeds enumeration bound")
    return Poly.coerce(product_cumulant(nc.IntervalPartition.of(sizes), cf, word))
