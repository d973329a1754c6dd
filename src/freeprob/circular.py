"""Exact spectral analysis of |lam - c|^2 for the standard circular operator.

The R-transform of |lam - c|^2 is 1/(1-z) + lam^2/(1-z)^2; with m = lam^2 - 1
the K-transform K_m(z) = 1/z + 1/(1-z) + lam^2/(1-z)^2 = (1 + m z)/(z (1-z)^2)
has critical points z-/z+ whose images s-/s+ are the support endpoints.  The
Cauchy transform G(w) is a root of the cubic z^3 - 2 z^2 + (1 - m/w) z - 1/w.

* ``density`` takes, at each real t in (s-, s+), the cubic's one conjugate
  root pair G(t -/+ i0) in closed form (Cardano), and returns the exact
  boundary value rho(t) = |Im G| / pi.  The discriminant factors through the
  support endpoints, D = (m + 1)(t - s-)(s+ - t) / (27 t^3), so it keeps its
  relative precision up to the edges.
* ``oracles.cauchy_transform`` takes the roots by the Aberth-Ehrlich
  iteration and fixes the branch by z ~ 1/w at infinity, tracked by
  continuation.  It is the oracle that ``verify`` and the tests hold the
  density against; it never uses Cardano, whose closed form is what it
  checks.

Numerical note: the textbook form of s- loses all precision near lam = 1
(two ~27-sized terms cancel to O((lam-1)^3)).  The algebraically equivalent
form 8 m^3 / (27 + 36 m + 8 m^2 + (9 + 8m)^{3/2}) is used instead; the
identity (27+36m+8m^2)^2 - (9+8m)^3 = 64 (m+1) m^3 makes the two forms equal.
"""

from __future__ import annotations

import math

from . import _oracle_forwarder
from . import measures as me
from ._record import FrozenRecord

# perfbench/tracer.py wraps cauchy_transform through this module; ROADMAP item 1
# deletes this forwarder when it re-bases the tracer rows on freeprob.oracles.
__getattr__ = _oracle_forwarder(__name__, ("cauchy_transform",))

# density grid points per unit of sqrt((s+ - s-)/s-) that quadrature needs
# for k <= 6; more for larger k (quadrature_points_needed, see density)
QUADRATURE_POINTS_PER_LOBE = 8


class PoleError(ValueError):
    """K-transform evaluated at one of its poles."""


def k_transform(z, m):
    """K_m(z) = (1 + m z) / (z (1-z)^2); poles at z = 0, 1."""
    if z == 0 or z == 1:
        raise PoleError(f"K_m has a pole at z = {z}")
    return (1 + m * z) / (z * (1 - z) ** 2)


def k_transform_summed(z, m):
    """Summed form 1/z + 1/(1-z) + (m+1)/(1-z)^2; algebraically identical."""
    if z == 0 or z == 1:
        raise PoleError(f"K_m has a pole at z = {z}")
    return 1 / z + 1 / (1 - z) + (m + 1) / (1 - z) ** 2


def critical_points(lam: float) -> tuple[float, float]:
    """Roots z- < 0 < z+ < 1 of the K_m' numerator 1 - 3z - 2 m z^2, with
    m = lam^2 - 1 formed as (lam - 1)(lam + 1): z- within 2e-15 relative of
    a 60-digit reference for lam - 1 from 1e-10 to 1e-2."""
    m = (lam - 1.0) * (lam + 1.0)
    if m <= 0:
        raise ValueError("requires lam > 1")
    root = math.sqrt(9.0 + 8.0 * m)
    z_minus = (-3.0 - root) / (4.0 * m)
    z_plus = 2.0 / (3.0 + root)  # = (-3 + root)/(4m), cancellation-free
    return z_minus, z_plus


def support_endpoints(lam: float) -> tuple[float, float]:
    """Support endpoints (s-, s+) of the spectral measure of |lam - c|^2.

    m = lam^2 - 1 is formed as (lam - 1)(lam + 1): s- is cubic in m, and
    lam*lam - 1 lost 1.5e-8 of it at lam - 1 = 1e-8; now s- is within 2e-15
    relative of a 60-digit reference for lam - 1 from 1e-10 to 1e-2.
    """
    m = (lam - 1.0) * (lam + 1.0)
    if m <= 0:
        raise ValueError("requires lam > 1")
    a = 27.0 + 36.0 * m + 8.0 * m * m
    b32 = (9.0 + 8.0 * m) ** 1.5
    s_plus = (a + b32) / (8.0 * (m + 1.0))
    s_minus = 8.0 * m**3 / (a + b32)
    return s_minus, s_plus


def inf_spec(lam: float) -> float:
    """inf spec |lam - c|^2; equals s-.

    Literal form (8 lam^4 + 20 lam^2 - 1 - (8 lam^2 + 1)^{3/2}) / (8 lam^2),
    evaluated through the cancellation-free rewrite, with lam^2 - 1 formed as
    (lam - 1)(lam + 1): within 1e-15 relative of a 60-digit reference for
    lam - 1 from 1e-10 to 10 (9.0e-16 the worst of 3000 sampled lam).
    """
    if lam <= 1:
        raise ValueError("requires lam > 1")
    lam2 = lam * lam
    a = 8.0 * lam2 * lam2 + 20.0 * lam2 - 1.0
    b32 = (8.0 * lam2 + 1.0) ** 1.5
    return 8.0 * lam2 * ((lam - 1.0) * (lam + 1.0)) ** 3 / ((a + b32) * lam2)


class CircularSpectrum(FrozenRecord):
    """Critical points and support endpoints of |lam - c|^2 at one lam."""

    _fields = ("lam", "m", "z_minus", "z_plus", "s_minus", "s_plus")

    def __init__(self, lam: float, m: float, z_minus: float, z_plus: float, s_minus: float,
                 s_plus: float):
        self.__dict__.update(lam=lam, m=m, z_minus=z_minus, z_plus=z_plus, s_minus=s_minus,
                             s_plus=s_plus)

    @staticmethod
    def at(lam: float) -> "CircularSpectrum":
        z_minus, z_plus = critical_points(lam)
        s_minus, s_plus = support_endpoints(lam)
        return CircularSpectrum(lam, (lam - 1.0) * (lam + 1.0), z_minus, z_plus, s_minus, s_plus)


# ---------------------------------------------------------------------------
# Density: boundary value of the cubic on the support
# ---------------------------------------------------------------------------


def density(lam: float, n_points: int = 512) -> me.SpectralMeasure:
    """Spectral density of |lam - c|^2 on a Chebyshev grid inside (s-, s+).

    For real t in (s-, s+) the cubic has real coefficients and exactly one
    conjugate pair of roots, G(t - i0) and G(t + i0), so
    rho(t) = -Im G(t + i0) / pi = |Im z| / pi holds with no smoothing
    parameter and is non-negative by construction.

    Each node is solved in closed form.  With z = y + 2/3 the cubic is
    y^3 + p y + q, p = -1/3 - m/t, q = 2/27 - 2m/(3t) - 1/t, and its
    discriminant is D = (q/2)^2 + (p/3)^3 = (m + 1)(t - s-)(s+ - t) / (27 t^3)
    > 0.  On the support q < 0, since t < s+ < 9m + 27/2 (that bound is
    (9 + 8m)^{3/2} < (9 + 8m)^2), so Cardano's u^3 = -q/2 + sqrt(D) adds two
    positive terms, v = -p/(3u) > 0, and the pair's imaginary part is
    (sqrt 3 / 2)|u - v| = sqrt(3 D) / (u^2 + u v + v^2), a sum of positive
    terms: no step cancels.  Against 50-digit roots, for 30 lam in [1.01, 11],
    the relative error is at most 2.1e-12 on grids of 24-80 nodes, and 4e-10
    at the edge nodes of a 2048-node grid for lam in [1.01, 3]; the worst
    node is the one next to an edge, where the rounding of s-/+ in t - s-/+
    sets it.

    The inner support scale sets a grid requirement.  Near lam = 1 the
    density has an inner lobe of width about s-, where t^(-j-1) puts the
    weight of a negative moment.  Quadrature against the grid is only as good
    as the ratio rho = n_points / sqrt((s+ - s-) / s-): the relative error
    of m_{-2}, ..., m_{-2k-2} by quadrature depends on rho and k alone.  The
    table gives the worst over lam = 1.05, 1.2, 1.5 and 3, against the exact
    Lagrange route:

        rho      4        6        8        10       12       14       16
        k <= 6   1.1e-2   5.0e-5   1.1e-7   1.8e-10  6.5e-13  5.4e-12  3.2e-12
        k <= 11  9.4e-2   1.5e-3   9.6e-6   3.5e-8   9.0e-11  6.9e-12  6.2e-12
        k <= 20  4.3e-1   3.2e-2   7.9e-4   9.9e-6   7.5e-8   3.9e-10  1.0e-11
        k <= 40  8.2e-1   3.4e-1   4.7e-2   3.2e-3   1.2e-4   3.0e-6   4.9e-8

    (from rho of about 12 on, float rounding sets a floor near 1e-11).  For
    1e-7 a finer scan needs rho of about 8, 9.5, 12 and 15.5 at k = 6, 11, 20
    and 40, which rho(k) = max(8, 3 + 2 sqrt(k)) follows: 8, 9.6, 11.9 and
    15.6.  The rule is n_points >= rho(k) sqrt((s+ - s-) / s-)
    (``quadrature_points_needed``), with QUADRATURE_POINTS_PER_LOBE = 8 the
    floor for k <= 6; on the four lam above it keeps the error within 1.1e-7
    for every k <= 40 and within 1.9e-7 up to k = 80 (where m_{-160} and
    m_{-162} at lam = 1.05 overflow a float).  ``moments --route
    quadrature`` refuses a grid below it.  At k <= 6, 80 points meet it for
    lam >= 1.5, and the default 2048 for lam >= 1.046; at lam = 1.001 it
    takes 604,292.  At k = 40 and lam = 1.5 it takes 156 points.
    """
    spec = CircularSpectrum.at(lam)
    m, s_minus, s_plus = spec.m, spec.s_minus, spec.s_plus
    grid, weights = me.chebyshev_grid(s_minus, s_plus, n_points)
    values = []
    for t in grid:
        p = -1.0 / 3.0 - m / t
        q = 2.0 / 27.0 - 2.0 * m / (3.0 * t) - 1.0 / t
        disc = (m + 1.0) * (t - s_minus) * (s_plus - t) / (27.0 * t**3)
        u = (math.sqrt(disc) - 0.5 * q) ** (1.0 / 3.0)
        v = -p / (3.0 * u)
        values.append(math.sqrt(3.0 * disc) / (u * u + u * v + v * v) / math.pi)
    return me.SpectralMeasure.from_density(grid, values, weights, "chebyshev-midpoint")


def quadrature_points_needed(lam: float, k: int = 0) -> int:
    """The fewest density grid points whose quadrature resolves the inner
    lobe at lam for m_{-2}, ..., m_{-2k-2}: ceil(rho(k) sqrt((s+ - s-) / s-))
    with rho(k) = max(QUADRATURE_POINTS_PER_LOBE, 3 + 2 sqrt(k)), see density."""
    s_minus, s_plus = support_endpoints(lam)
    rho = max(QUADRATURE_POINTS_PER_LOBE, 3.0 + 2.0 * math.sqrt(k))
    return math.ceil(rho * math.sqrt((s_plus - s_minus) / s_minus))


def pushforward_inverse_sqrt(meas: me.SpectralMeasure) -> me.SpectralMeasure:
    """Distribution of t -> 1/sqrt(t); requires support strictly positive.

    Change of variables t = y^-2: the density transforms by |dt/dy| = 2 y^-3
    and the quadrature weights by the reciprocal factor, so every integral of
    the pushforward matches the substituted integral of the original.
    """
    if meas.support_min() <= 0:
        raise ValueError("pushforward needs support strictly inside (0, inf)")
    atoms = tuple((1.0 / math.sqrt(x), w) for x, w in meas.atoms)
    if not meas.grid:
        return me.SpectralMeasure.from_atoms(atoms)
    y = [1.0 / math.sqrt(t) for t in reversed(meas.grid)]  # increasing again
    rho_y = [rho * 2.0 / yi**3 for yi, rho in zip(y, reversed(meas.density))]
    w_y = [w * yi**3 / 2.0 for yi, w in zip(y, reversed(meas.weights))]
    return me.SpectralMeasure(atoms, y, rho_y, w_y, meas.quadrature + "+inv-sqrt")

