"""Free cumulant calculus for R-diagonal operators.

Provides the moment <-> cumulant conversions of a single variable, by the
first-block identity rather than a sum over NC(n) (``cumulant_stream`` runs
it on an endless moment stream), and ``OperatorModel``: an
R-diagonal operator given by its determining cumulants alpha.  The partition
sums (cumulants with products as arguments, R-diagonal word moments, the
cumulants of |lam - c|^2 by word expansion) are the oracles in
``freeprob.oracles``.

Scalars are exact: Fractions, or ring.Poly for symbolic identities.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import _oracle_forwarder
from ._record import Record

# perfbench/tracer.py wraps rdiag_moment and perfbench/baseline.py calls
# circular_shift_cumulants through this module; ROADMAP item 1 deletes this
# forwarder when it re-bases the tracer rows on freeprob.oracles.
__getattr__ = _oracle_forwarder(__name__, ("rdiag_moment", "circular_shift_cumulants"))


class OrderCapError(ValueError):
    """A cumulant beyond the declared maximum order was requested."""


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


def cumulant_stream(moments: Iterable) -> Iterator:
    """Free cumulants kappa_1, kappa_2, ... from moments m_1, m_2, ...: the
    same identity solved for its s = n term, kappa_n.  kappa_n reads
    m_1 .. m_n only, so an endless moment stream gives an endless one."""
    m, kappas = [1], []  # m_0 = 1
    for moment, row in zip(moments, _first_block_rows(m)):
        m.append(moment)
        kappas.append(moment - sum(k * c for k, c in zip(kappas, row) if k != 0))
        yield kappas[-1]


def cumulants_from_moments(moments: Iterable) -> list:
    """Free cumulants kappa_1..kappa_K from moments m_1..m_K (cumulant_stream).

    Round-trips exactly with free_moments_from_cumulants.
    """
    return list(cumulant_stream(moments))


# ---------------------------------------------------------------------------
# R-diagonal models
# ---------------------------------------------------------------------------


class OperatorModel(Record):
    """An R-diagonal operator described by its determining cumulants.

    alpha[l-1] holds the order-2l alternating cumulant alpha_l of the
    operator; the normalization fixes alpha_1 = 1.  ``alpha_at`` is the one
    reader of alpha_n for every n: the stored tuple here, one source per
    builtin (``freeprob.models``).  Optionally carries a spectral measure
    for a a*.

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

    _fields = ("name", "alpha", "aa_star_measure")
    aa_star_measure = None
    r_mu_is_z = False  # R_mu(z) = z exactly: set by the circular builtin's class alone

    def __init__(self, name: str, alpha: tuple[Fraction, ...], aa_star_measure: object | None = None):
        self.name = name
        self.alpha = tuple(Fraction(a) for a in alpha)
        if aa_star_measure is not None:  # a subclass may give its measure as a property
            self.aa_star_measure = aa_star_measure
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
        """alpha_n: the stored value, OrderCapError past it.  The builtins
        override this with a source that gives alpha_n for every n."""
        if 1 <= n <= len(self.alpha):
            return self.alpha[n - 1]
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


def alpha_from_aa_star_moments(moments: Sequence[Fraction]) -> list[Fraction]:
    """Determining cumulants from phi((a a*)^n): the free cumulants of the
    free cumulants of a a*.  Inverts OperatorModel.aa_star_moments exactly."""
    return cumulants_from_moments(cumulant_stream(map(Fraction, moments)))

