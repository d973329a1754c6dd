"""Resolvent norms of R-diagonal operators and the sharp blow-up asymptotic.

The norm comes from the critical value of the rescaled inverse-Cauchy series:
the smallest positive support point of the shifted symmetrized modulus is
(lam^2-1)^{3/2} F(x*) where x* is the unique critical point of F in
(0, 1/sqrt(v)), so the resolvent norm is the reciprocal.

Root finding is bisection only: the relevant functions come with sign or
monotonicity guarantees but no useful smoothness bounds, so robustness wins
over iteration count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import noncrossing as nc

SQRT_27_OVER_32 = math.sqrt(27.0 / 32.0)
TRUNCATED_LAMBDA_GUARD = 1e-4


class RegimeError(ValueError):
    """Requested lam lies outside the regime the model's data can resolve."""


class BracketError(RuntimeError):
    """Root bracketing failed within the expansion budget."""


@dataclass(frozen=True)
class NormResult:
    lam: float
    norm: float
    m_lambda: float
    asymptotic: float
    ratio: float
    route: str
    x_critical: float


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f = {flo}, {fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Subordination functions
# ---------------------------------------------------------------------------


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
        if g(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError(f"no bracket for lam={lam}, t={t} within 200 doublings")
    s_root = _bisect(g, lo, hi)
    return s_root


def h_lambda(model, lam: float, t: float) -> float:
    """h_lam(t) = h(s(lam, t)); |lam - a|'s subordinated transform on i R_+."""
    s_root = solve_subordination(model, lam, t)
    return h_function(model.aa_star_measure, s_root)


# ---------------------------------------------------------------------------
# The rescaled series F and its critical point
# ---------------------------------------------------------------------------


def _sqrt_term(z: float, lam_sq: float) -> float:
    """(1 - sqrt(1 + 4 lam^2 z^2)) / (2 z), cancellation-free."""
    q = 4.0 * lam_sq * z * z
    root = math.sqrt(1.0 + q)
    # 1 - root = -q / (1 + root)
    return -q / (1.0 + root) / (2.0 * z)


def _sqrt_term_derivative(z: float, lam_sq: float) -> float:
    """d/dz of the term above: (1 - u) / (2 z^2 u) with u = sqrt(1 + 4 lam^2 z^2)."""
    q = 4.0 * lam_sq * z * z
    u = math.sqrt(1.0 + q)
    return -q / (1.0 + u) / (2.0 * z * z * u)


def inverse_cauchy_value(model, lam: float, z: float) -> float:
    """B(z) = R_mu(z) + (1 - sqrt(1 + 4 lam^2 z^2))/(2z) at real z.

    R_mu is the odd polynomial with coefficients alpha: exact for the circular
    model (alpha's tail is zero, so R_mu(z) = z) and truncated otherwise; the
    square-root part is closed form either way.
    """
    kappas = model.r_mu_floats
    acc = 0.0
    for kap in reversed(kappas):
        acc = acc * z * z + kap
    return acc * z + _sqrt_term(z, lam * lam)


def inverse_cauchy_derivative(model, lam: float, z: float) -> float:
    kappas = model.r_mu_floats
    d = 0.0
    for j in range(len(kappas), 0, -1):
        d = d * z * z + (2 * j - 1) * kappas[j - 1]
    return d + _sqrt_term_derivative(z, lam * lam)


def rescaled_series_value(model, lam: float, x: float) -> float:
    """F(x) = -(lam^2-1)^{-3/2} B((lam^2-1)^{1/2} x)."""
    m = lam * lam - 1.0
    return -inverse_cauchy_value(model, lam, math.sqrt(m) * x) / m**1.5


def rescaled_series_derivative(model, lam: float, x: float) -> float:
    m = lam * lam - 1.0
    return -inverse_cauchy_derivative(model, lam, math.sqrt(m) * x) / m


def variance_v(model) -> float:
    """v = ||a||_4^4 - 1; from alpha_2 (equivalently the measure's 2nd moment)."""
    if len(model.alpha) >= 2:
        return float(model.alpha[1] + 1)
    if model.aa_star_measure is not None:
        return model.aa_star_measure.moment(2) - 1.0
    raise ValueError("model carries no fourth-moment data")


def find_critical_point(model, lam: float) -> float:
    """The unique x in (0, 1/sqrt(v)) with F'(x) = 0, by bisection.

    F' is strictly decreasing on the bracket (positive at 0+, negative at the
    right endpoint); absence of a sign change means lam is outside the regime
    the truncated series can resolve and raises RegimeError.
    """
    v = variance_v(model)
    if v <= 0:
        raise RegimeError("v = 0: Haar-unitary regime has no norm blow-up law")
    if lam <= 1:
        raise ValueError("requires lam > 1")
    if not model.r_mu_closed_form and lam - 1 < TRUNCATED_LAMBDA_GUARD:
        raise RegimeError(
            f"lam - 1 = {lam - 1:g} under the truncation guard {TRUNCATED_LAMBDA_GUARD:g} "
            f"for a finitely-truncated model"
        )
    hi = 1.0 / math.sqrt(v)
    lo = 1e-9 * hi

    def fprime(x: float) -> float:
        return rescaled_series_derivative(model, lam, x)

    f_lo, f_hi = fprime(lo), fprime(hi)
    if f_lo <= 0 or f_hi >= 0:
        raise RegimeError(
            f"F' endpoint signs ({f_lo:g}, {f_hi:g}) admit no bracketed root; "
            f"lam = {lam} too far from 1 for truncation order {model.order}"
        )
    return _bisect(fprime, lo, hi)


def resolvent_norm(model, lam: float) -> NormResult:
    """||(lam - a)^{-1}|| = 1 / ((lam^2-1)^{3/2} F(x*)).

    Exact for the circular model (its modulus R-transform is closed form);
    truncated-cumulant models carry the route tag 'series-truncated'.
    """
    x_star = find_critical_point(model, lam)
    m = lam * lam - 1.0
    f_val = rescaled_series_value(model, lam, x_star)
    if f_val <= 0:
        raise RegimeError(f"critical value F(x*) = {f_val:g} not positive at lam = {lam}")
    m_lambda = m**1.5 * f_val
    norm = 1.0 / m_lambda
    v = variance_v(model)
    asym = asymptotic_norm(v, lam)
    route = "series-exact" if model.r_mu_closed_form else "series-truncated"
    return NormResult(
        lam=lam,
        norm=norm,
        m_lambda=m_lambda,
        asymptotic=asym,
        ratio=norm / asym,
        route=route,
        x_critical=x_star,
    )


def asymptotic_norm(v: float, lam: float) -> float:
    """sqrt(27/32) sqrt(v) (lam - 1)^{-3/2}: the universal blow-up law."""
    if v <= 0:
        raise ValueError("requires v > 0 (Haar unitaries excluded)")
    if lam <= 1:
        raise ValueError("requires lam > 1")
    return SQRT_27_OVER_32 * math.sqrt(v) / (lam - 1.0) ** 1.5


def lower_bound_from_moments(neg_moments, k: int) -> float:
    """(m_{-2k-2} / m_{-2})^{1/(2k)} <= the resolvent norm.

    ``neg_moments`` lists m_{-2}, m_{-4}, ..., m_{-2k-2}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(neg_moments) < k + 1:
        raise ValueError("need moments through m_{-2k-2}")
    m2 = float(neg_moments[0])
    mtop = float(neg_moments[k])
    if m2 <= 0 or mtop <= 0:
        raise ValueError("negative moments of a positive operator must be positive")
    return (mtop / m2) ** (1.0 / (2 * k))


def fuss_catalan_root(k: int) -> float:
    """(C^(2)_k)^{1/(2k)}; approaches (3/2) sqrt(3) from below.

    Convergence is slow (a log(k)/k correction), so quantitative checks of
    the limiting constant use the ratio estimator below.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    c = nc.fuss_catalan(2, k)
    return math.exp(math.log(c) / (2 * k))


def fuss_catalan_root_ratio(k: int) -> float:
    """sqrt(C^(2)_{k+1} / C^(2)_k): same (3/2) sqrt(3) limit, O(1/k) error."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.sqrt(nc.fuss_catalan(2, k + 1) / nc.fuss_catalan(2, k))
