"""Partition structure diagrams: non-crossing families of inscribed even
polygons on an alternating disc, summed by one recursion over arcs.

Disc convention: a word with runs (n_0, m_0, ..., n_k, m_k) has 2(k+1) run
vertices placed on a circle in word order; even vertex indices are a*-runs,
odd ones are a-runs.  A polygon is a subset of vertices of even size >= 2
whose sorted cyclic order alternates parity; a 2-gon is a chord.

Two polygons are compatible when one fits inside a single closed gap between
cyclically consecutive vertices of the other: intersections are then shared
edges or vertices only.  A diagram is a set of pairwise compatible distinct
polygons; multiplicity of nested 2-blocks lives in labels, never in repeated
polygons.

The diagrams themselves -- the polygon and diagram classes, their
enumeration, the quadrangulations and the compression bijection with
alternating non-crossing partitions of R-diagonal words -- are the oracles in
``freeprob.oracles``; this module counts and weighs diagrams without building
one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from . import _oracle_forwarder
from . import noncrossing as nc

if TYPE_CHECKING:
    from .ring import Poly

# perfbench/tracer.py wraps enumerate_psd through this module; ROADMAP item 1
# deletes this forwarder when it re-bases the tracer rows on freeprob.oracles.
__getattr__ = _oracle_forwarder(__name__, ("enumerate_psd",))

PROFILE_K_BOUND = 11  # a cold profile_table(11) takes 1.0-1.3 s (2-CPU x86 host)
# negative_moments_psd reads no profiles: 0.12-0.2 s at k = 40, 0.5-0.8 s at 60 (same host)
PSD_MOMENTS_K_BOUND = 40
# count_quadrangulations is a closed form; its bound keeps the printed number
# under CPython's default 4300-digit int -> str limit (C^(2)_5100 has 4224)
QUADRANGULATION_COUNT_K_BOUND = 5100


class DiagramBoundError(ValueError):
    """Diagram enumeration or counting requested beyond its practical bound."""


# ---------------------------------------------------------------------------
# Diagram sums by recursion over arcs
# ---------------------------------------------------------------------------
#
# Every diagram sum in this module weighs a diagram by the product of its
# polygons' weights: a chord weighs ``chord`` and a 2l-gon (l >= 2) weighs
# ``polygon(l)``.  For phi(|lam - a|^{-2(k+1)}) a chord weighs
# x = 1/(lam^2 - 1) (the geometric sum over its label) and a 2l-gon
# y^l alpha_l with y = 1/lam^2, and the whole disc carries y^{k+1}.  The
# profile generating function is the same recursion with marker weights: a
# packed monomial per polygon size, so the sum counts diagrams profile by
# profile.
#
# A diagram on an arc of d + 1 consecutive run vertices is split at its first
# vertex: either no polygon passes through it, or the polygons through it
# reach a farthest vertex e (e odd), and no polygon crosses from the arc
# [0..e] to [e..d].  On [0..e] the span (0, e) is carried by the chord, by
# one polygon of >= 4 vertices, or by both.  That polygon's vertices are a
# chain of odd steps, and each of its gaps holds an arbitrary diagram on the
# sub-arc (a chord or polygon there may share the polygon's edge).  Every sum
# depends only on the arc length, so one pass over d = 1, 2, ... gives them
# all; the disc of 2(k+1) vertices is the arc d = 2k+1.

_DIGIT = 16  # s_l sits in bits [_DIGIT (l - 1), _DIGIT l) of a packed profile


class _Profiles:
    """Profile generating function: packed profile -> diagram count.  The
    product of two monomials adds their packed keys."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int]):
        self.counts = counts

    def __add__(self, other: "_Profiles") -> "_Profiles":
        out = _Profiles(dict(self.counts))
        out += other
        return out

    def __iadd__(self, other: "_Profiles") -> "_Profiles":
        counts = self.counts
        for key, count in other.counts.items():
            counts[key] = counts.get(key, 0) + count
        return self

    def __mul__(self, other: "_Profiles") -> "_Profiles":
        out: dict[int, int] = {}
        for ka, ca in self.counts.items():
            for kb, cb in other.counts.items():
                out[ka + kb] = out.get(ka + kb, 0) + ca * cb
        return _Profiles(out)


def _arc_sums(top: int, zero, one, chord, polygon) -> list:
    """Weighted sums over all diagrams on arcs of d + 1 vertices, d = 0..top.

    Generic in the value type: ``zero`` and ``one`` are its identities,
    ``chord`` weighs a 2-gon and ``polygon(l)`` a 2l-gon.  ``+`` and ``*``
    must return fresh values, which the loop extends with ``+=``.
    """
    arcs, spanned = [one], [zero]
    # chains[s][d]: chains 0 = v_0 < ... < v_s = d of s odd steps, each gap
    # holding a diagram on its sub-arc; zero unless s = d (mod 2)
    chains = [[zero] * (top + 1) for _ in range(top + 1)]
    # carriers[s]: a polygon on a chain of s steps, with or without the chord
    carriers = [zero] * (top + 1)
    for s in range(3, top + 1, 2):
        carriers[s] = polygon((s + 1) // 2) * (one + chord)
    for d in range(1, top + 1):
        unspanned = zero + arcs[d - 1]
        for e in range(1, d, 2):
            unspanned += spanned[e] * arcs[d - e]
        for s in range(2 + d % 2, d + 1, 2):
            link = chains[s - 1][d - 1] * arcs[1]
            for last in range(3, d - s + 2, 2):
                link += chains[s - 1][d - last] * arcs[last]
            chains[s][d] = link
        if d % 2:
            span = chord * unspanned
            for s in range(3, d + 1, 2):
                span += carriers[s] * chains[s][d]
        else:
            span = zero
        spanned.append(span)
        arcs.append(unspanned + span)
        if d % 2:
            chains[1][d] = arcs[d]
    return arcs


def _check_profile_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > PROFILE_K_BOUND:
        raise DiagramBoundError(f"profile table bound is k <= {PROFILE_K_BOUND}")


@lru_cache(maxsize=None)
def profile_table(k: int) -> dict[tuple[int, ...], int]:
    """Profile -> diagram count over all of PSD_{k+1}: the arc recursion with
    marker weights; verify compares it with ``oracles.enumerate_psd``."""
    _check_profile_k(k)
    top = 2 * k + 1
    chord = _Profiles({1: 1})  # the packed profile of one 2-gon
    disc = _arc_sums(
        top, _Profiles({}), _Profiles({0: 1}), chord, lambda ell: _Profiles({1 << (_DIGIT * (ell - 1)): 1})
    )[top]
    mask = (1 << _DIGIT) - 1
    return {
        tuple((key >> (_DIGIT * ell)) & mask for ell in range(k + 1)): count
        for key, count in disc.counts.items()
    }


def profile_count(k: int, profile) -> int:
    """Number of diagrams with s_1 2-gons, s_2 4-gons, ...; read from the
    counted ``profile_table``.

    Short profiles are padded with zeros.
    """
    padded = tuple(profile) + (0,) * (k + 1 - len(profile))
    if len(padded) > k + 1:
        if any(padded[k + 1:]):
            return 0
        padded = padded[: k + 1]
    return profile_table(k).get(padded, 0)


def count_quadrangulations(k: int) -> int:
    """Number of tilings of the 2(k+1)-gon into 4-gons: the Fuss-Catalan
    number C^(2)_k.  verify checks it against the tilings that
    ``oracles.quadrangulations`` builds, each with 3k+1 segments (boundary
    edges included).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > QUADRANGULATION_COUNT_K_BOUND:
        raise DiagramBoundError(f"quadrangulation count bound is k <= {QUADRANGULATION_COUNT_K_BOUND}")
    return nc.fuss_catalan(2, k)


# ---------------------------------------------------------------------------
# Moment polynomial
# ---------------------------------------------------------------------------


def moment_polynomial(k: int) -> Poly:
    """The two-variable polynomial P_{k+1} with
    phi(|lam - a|^{-2(k+1)}) = P_{k+1}(1/(lam^2-1), 1/lam^2).

    The arc recursion on Poly weights: a chord weighs x (the geometric label
    sum over its multiplicities), a 2l-gon y^l a_l with alpha_l kept symbolic
    as a2, a3, ..., and the disc carries y^{k+1}; a diagram with profile
    (s_1, ..., s_{k+1}) thus gives x^{s_1} y^{(k+1) + sum_{l>=2} l s_l}
    prod_{l>=2} a_l^{s_l}.

    No normalization across the relation x - y = x y is applied; compare
    values, not coefficients.
    """
    from .ring import Poly

    _check_profile_k(k)
    top = 2 * k + 1
    x, y = Poly.var("x"), Poly.var("y")  # x stands for 1/(lam^2 - 1), y for 1/lam^2
    arcs = _arc_sums(top, Poly(), Poly.const(1), x, lambda ell: y**ell * Poly.var(f"a{ell}"))
    return y ** (k + 1) * arcs[top]


def negative_moments_psd(model, k: int, lam) -> list:
    """m_{-2}(mu_lam), ..., m_{-2k-2}(mu_lam) with
    m_{-2j-2} = phi(|lam - a|^{-2(j+1)}): one pass of the arc recursion with
    chord weight x = 1/(lam^2-1) and 2l-gon weight y^l alpha_l, y = 1/lam^2,
    and no Poly built.  Same shape as ``series.negative_moments_lagrange``.

    Exact (Fraction) for rational lam, float for float lam; x is formed as
    1/((lam-1)(lam+1)), which keeps its digits next to lam = 1.  Requires
    alpha_2..alpha_{k+1} from the model.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    alphas = [model.alpha_at(ell) for ell in range(2, k + 2)]
    if not isinstance(lam, float):
        lam = Fraction(lam)
        if lam * lam <= 1:
            raise ValueError("requires lam > 1")
    x, y = 1 / ((lam - 1) * (lam + 1)), 1 / (lam * lam)
    arcs = _arc_sums(2 * k + 1, 0, 1, x, lambda ell: y**ell * alphas[ell - 2])
    return [y ** (j + 1) * arcs[2 * j + 1] for j in range(k + 1)]
