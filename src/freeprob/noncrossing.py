"""Counts of non-crossing partitions: Catalan and Fuss-Catalan numbers.

|NC(n)| is the Catalan number, so ``count_nc`` needs no enumeration.  The
partitions themselves -- NC(n), pairings and the alternating partitions of
R-diagonal words -- are enumerated in ``freeprob.oracles``, where ``verify``
and the tests hold the counts against them.
"""

from __future__ import annotations

import math

from . import _oracle_forwarder

# perfbench/tracer.py wraps enumerate_nc and enumerate_alternating through this
# module; ROADMAP item 1 deletes this forwarder when it re-bases the tracer
# rows on freeprob.oracles.
__getattr__ = _oracle_forwarder(__name__, ("enumerate_nc", "enumerate_alternating"))

# count_nc is a closed form; its bound keeps the printed Catalan number under
# CPython's default 4300-digit int -> str limit (Catalan(7100) has 4269 digits)
COUNT_BOUND = 7100


class EnumerationBoundError(ValueError):
    """Requested enumeration exceeds the configured practical bound."""


def count_nc(n: int) -> int:
    """|NC(n)| = Catalan(n), up to COUNT_BOUND; verify checks the enumeration
    against it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > COUNT_BOUND:
        raise EnumerationBoundError(f"NC({n}) exceeds count bound {COUNT_BOUND}")
    return catalan(n)


def fuss_catalan(p: int, k: int) -> int:
    """C^(p)_k = binom((p+1)k, k) / (pk + 1), exact."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb((p + 1) * k, k) // (p * k + 1)


def catalan(k: int) -> int:
    return fuss_catalan(1, k)
