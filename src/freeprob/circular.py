"""Exact spectral analysis of |lam - c|^2 for the standard circular operator.

The R-transform of |lam - c|^2 is 1/(1-z) + lam^2/(1-z)^2; with m = lam^2 - 1
the K-transform K_m(z) = 1/z + 1/(1-z) + lam^2/(1-z)^2 = (1 + m z)/(z (1-z)^2)
has critical points z-/z+ whose images s-/s+ are the support endpoints.  The
Cauchy transform solves a cubic (Cardano / companion roots) with the branch
fixed by z ~ 1/w at infinity and tracked by continuation.  On the support the
cubic's coefficients are real and G(t -/+ i0) is its one conjugate pair, so the
density is the exact boundary value |Im z| / pi of that pair.

Numerical note: the textbook form of s- loses all precision near lam = 1
(two ~27-sized terms cancel to O((lam-1)^3)).  The algebraically equivalent
form 8 m^3 / (27 + 36 m + 8 m^2 + (9 + 8m)^{3/2}) is used instead; the
identity (27+36m+8m^2)^2 - (9+8m)^3 = 64 (m+1) m^3 makes the two forms equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cumulants as cu
from . import measures as me
from . import series as se
from .ring import Poly


class PoleError(ValueError):
    """K-transform evaluated at one of its poles."""


class BranchError(ValueError):
    """Cauchy transform requested on the support where no branch is defined."""


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


def k_transform_derivative(z, m):
    """K_m'(z) = (1 - 3z - 2 m z^2) / (z^2 (z-1)^3)."""
    if z == 0 or z == 1:
        raise PoleError(f"K_m' has a pole at z = {z}")
    return (1 - 3 * z - 2 * m * z**2) / (z**2 * (z - 1) ** 3)


def critical_points(lam: float) -> tuple[float, float]:
    """Roots z- < 0 < z+ < 1 of the K_m' numerator 1 - 3z - 2 m z^2."""
    m = lam * lam - 1.0
    if m <= 0:
        raise ValueError("requires lam > 1")
    root = math.sqrt(9.0 + 8.0 * m)
    z_minus = (-3.0 - root) / (4.0 * m)
    z_plus = 2.0 / (3.0 + root)  # = (-3 + root)/(4m), cancellation-free
    return z_minus, z_plus


def support_endpoints(lam: float) -> tuple[float, float]:
    """Support endpoints (s-, s+) of the spectral measure of |lam - c|^2."""
    m = lam * lam - 1.0
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
    evaluated through the cancellation-free rewrite.
    """
    if lam <= 1:
        raise ValueError("requires lam > 1")
    lam2 = lam * lam
    a = 8.0 * lam2 * lam2 + 20.0 * lam2 - 1.0
    b32 = (8.0 * lam2 + 1.0) ** 1.5
    return 8.0 * lam2 * (lam2 - 1.0) ** 3 / ((a + b32) * lam2)


@dataclass(frozen=True)
class CircularSpectrum:
    """Critical points and support endpoints of |lam - c|^2 at one lam."""

    lam: float
    m: float
    z_minus: float
    z_plus: float
    s_minus: float
    s_plus: float

    @staticmethod
    def at(lam: float) -> "CircularSpectrum":
        z_minus, z_plus = critical_points(lam)
        s_minus, s_plus = support_endpoints(lam)
        return CircularSpectrum(lam, lam * lam - 1.0, z_minus, z_plus, s_minus, s_plus)


# ---------------------------------------------------------------------------
# Cauchy transform by Cardano roots + branch tracking
# ---------------------------------------------------------------------------


def _cubic_roots(m: float, w) -> np.ndarray:
    """Roots of z^3 - 2 z^2 + (1 - m/w) z - 1/w = 0 for scalar or array w.

    Eigenvalues of the companion matrix np.roots builds, batched over w: a
    scalar w gives shape (3,), n points give (n, 3).  The top row is formed
    as np.roots forms it, so scalar results equal np.roots bit for bit.
    """
    top = np.stack(np.broadcast_arrays(2.0, -(1.0 - m / w), 1.0 / w), axis=-1)
    companion = np.zeros(top.shape[:-1] + (3, 3), dtype=top.dtype)
    companion[..., 0, :] = top
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    return np.linalg.eigvals(companion)


def _nearest(roots: np.ndarray, target: complex) -> complex:
    return roots[int(np.argmin(np.abs(roots - target)))]


def cauchy_transform(w: complex, lam: float, steps: int = 48) -> complex:
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
    z = _nearest(_cubic_roots(spec.m, anchor), 1.0 / anchor)
    for i in range(1, steps + 1):
        frac = 1.0 - (1.0 - i / steps) ** 2  # refine toward the endpoint
        point = anchor + (w - anchor) * frac
        z = _nearest(_cubic_roots(spec.m, point), z)
    return z


# ---------------------------------------------------------------------------
# Density: boundary value of the cubic on the support
# ---------------------------------------------------------------------------


def density(lam: float, n_points: int = 512) -> me.SpectralMeasure:
    """Spectral density of |lam - c|^2 on a Chebyshev grid inside (s-, s+).

    For real t in (s-, s+) the cubic has real coefficients and exactly one
    conjugate pair of roots, G(t - i0) and G(t + i0), so
    rho(t) = -Im G(t + i0) / pi = max |Im z| / pi holds with no smoothing
    parameter and is non-negative by construction.  All nodes are solved in
    one batched eigenvalue call.

    The inner support scale sets a grid requirement: near lam = 1 the density
    develops structure at scale s- itself, and the inner lobe is resolved
    when n_points is at least a few times sqrt((s+ - s-) / s-), which matters
    only for lam - 1 below ~0.05.
    """
    spec = CircularSpectrum.at(lam)
    grid, weights = me.chebyshev_grid(spec.s_minus, spec.s_plus, n_points)
    values = np.abs(_cubic_roots(spec.m, grid).imag).max(axis=1) / math.pi
    return me.SpectralMeasure.from_density(grid, values, weights, "chebyshev-midpoint")


def pushforward_inverse_sqrt(meas: me.SpectralMeasure) -> me.SpectralMeasure:
    """Distribution of t -> 1/sqrt(t); requires support strictly positive.

    Change of variables t = y^-2: the density transforms by |dt/dy| = 2 y^-3
    and the quadrature weights by the reciprocal factor, so every integral of
    the pushforward matches the substituted integral of the original.
    """
    if meas.support_min() <= 0:
        raise ValueError("pushforward needs support strictly inside (0, inf)")
    atoms = tuple((1.0 / math.sqrt(x), w) for x, w in meas.atoms)
    if not len(meas.grid):
        return me.SpectralMeasure.from_atoms(atoms)
    y = (1.0 / np.sqrt(meas.grid))[::-1]  # increasing again
    rho_t = meas.density[::-1]
    w_t = meas.weights[::-1]
    rho_y = rho_t * 2.0 / y**3
    w_y = w_t * y**3 / 2.0
    return me.SpectralMeasure(atoms, y, rho_y, w_y, meas.quadrature + "+inv-sqrt")


# ---------------------------------------------------------------------------
# The R-transform identity, analytic (series) route
# ---------------------------------------------------------------------------


def shift_r_transform_coefficients(max_n: int) -> list[Poly]:
    """Cumulants of |lam - c|^2 derived analytically, as polynomials in lam.

    Pipeline: the symmetrized modulus of the shift has R-series
    z + (sqrt(1 + 4 lam^2 z^2) - 1)/(2z); its free moments push forward under
    squaring (even moments only) to the square modulus, whose cumulants then
    drop out of the triangular moment solve.
    """
    lam = Poly.var("lam")
    lam_sq = lam * lam
    # R-series of the symmetrized shifted modulus: semicircle part z plus the
    # positive-root shift term (the negative-root form with opposite sign);
    # kappa_n of that modulus is the z^{n-1} coefficient.
    shift = se.negative_root_shift(lam_sq, 2 * max_n - 1)
    kappas_mu: list[Poly] = []
    for n in range(1, 2 * max_n + 1):
        j = n - 1
        coeff = -Poly.coerce(shift.coeffs[j]) if j <= shift.order else Poly()
        if n == 2:
            coeff = coeff + 1
        kappas_mu.append(coeff)
    moments_mu = cu.free_moments_from_cumulants(kappas_mu)
    # squaring pushes the modulus forward onto |lam - c|^2: m_n = m_{2n}(mu)
    even = [moments_mu[2 * n - 1] for n in range(1, max_n + 1)]
    return cu.cumulants_from_moments(even)


# ---------------------------------------------------------------------------
# Moments of |lam - c|^2 by direct word expansion (quadrature cross-checks)
# ---------------------------------------------------------------------------


def shift_square_modulus_moment(n: int, lam):
    """phi(|lam - c|^{2n}) by expanding ((lam - c)(lam - c*))^n into traces of
    c / c* words and evaluating each combinatorially."""
    cf = cu.CumulantFunctional.circular(max_order=2 * n)
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
        total = total + (coeff * cu.moment_from_cumulants(cf, word) if word else coeff)
    return total
