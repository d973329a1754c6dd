"""Resolvent norms of R-diagonal operators and the sharp blow-up asymptotic.

The norm comes from the critical value of the rescaled inverse-Cauchy series:
the smallest positive support point of the shifted symmetrized modulus is
(lam^2-1)^{3/2} F(x*) where x* is the unique critical point of F in
(0, 1/sqrt(v)), so the resolvent norm is the reciprocal.

When R_mu(z) is exactly z (the circular model, whose alpha_n = [n = 1]),
B'(z) = 0 is a quadratic in r = 2 z^2 and the critical value has a
closed form in s = sqrt(8 lam^2 + 1): the norm is
sqrt(s - 1) ((s + 3) / (4 (lam^2 - 1)))^{3/2}, which is inf_spec(lam)^{-1/2}
without a cancelling step (see circular_norm_closed_form).  Every other model
reads R_mu truncated to its stored alpha (alpha_1..alpha_8 for the atomic
builtins), whose critical point solves no fixed low-degree equation, so it
is found by Newton's method on F' from circular's critical point, kept
inside the sign-change bracket that F' guarantees: F, F' and F'' are
polynomials in x and u = sqrt(1 + 4 lam^2 (lam^2 - 1) x^2) with no
cancelling step.  The subordination functions h and h_lam, solved by the
Illinois rule, are oracles in ``freeprob.oracles``.
"""

from __future__ import annotations

import math

from . import noncrossing as nc
from ._record import FrozenRecord

SQRT_27_OVER_32 = math.sqrt(27.0 / 32.0)
TRUNCATED_LAMBDA_GUARD = 1e-4


class RegimeError(ValueError):
    """Requested lam lies outside the regime the model's data can resolve."""


class NormResult(FrozenRecord):
    _fields = ("lam", "norm", "m_lambda", "asymptotic", "ratio", "route", "x_critical")

    def __init__(self, lam: float, norm: float, m_lambda: float, asymptotic: float, ratio: float,
                 route: str, x_critical: float):
        self.__dict__.update(lam=lam, norm=norm, m_lambda=m_lambda, asymptotic=asymptotic,
                             ratio=ratio, route=route, x_critical=x_critical)


# ---------------------------------------------------------------------------
# The rescaled series F and its critical point
# ---------------------------------------------------------------------------


def rescaled_series_value(model, lam: float, x: float) -> float:
    """F(x) = -(lam^2-1)^{-3/2} B((lam^2-1)^{1/2} x), for
    B(z) = R_mu(z) + (1 - sqrt(1 + 4 lam^2 z^2))/(2z).

    R_mu is the odd polynomial with coefficients alpha: exact for the circular
    model (alpha's tail is zero, so R_mu(z) = z) and truncated otherwise.
    With m = (lam - 1)(lam + 1), L = lam^2, y = m x^2 and u = sqrt(1 + 4L y),
    alpha_1 = 1 gives
    F(x) = x (2 - 4L x^2 / (1 + u)) / (1 + u) - x^3 sum_{j>=2} alpha_j y^{j-2}:
    the -m z of R_mu(z) - L z cancels against the square root in closed form,
    so no step subtracts nearly equal numbers as lam -> 1, where F -> x - v x^3
    (notes/decisions.md).
    """
    big_l = lam * lam
    y = (lam - 1.0) * (lam + 1.0) * x * x
    u = math.sqrt(1.0 + 4.0 * big_l * y)
    kappas = model.r_mu_floats
    p = 0.0
    for j in range(len(kappas), 1, -1):
        p = p * y + kappas[j - 1]
    return x * (2.0 - 4.0 * big_l * x * x / (1.0 + u)) / (1.0 + u) - x**3 * p


def rescaled_series_derivative(model, lam: float, x: float) -> float:
    """F'(x) = (2 - 4L x^2 (1 + 1/(1 + u))) / (u (1 + u))
    - x^2 sum_{j>=2} (2j - 1) alpha_j y^{j-2}, in the notation of F above."""
    big_l = lam * lam
    y = (lam - 1.0) * (lam + 1.0) * x * x
    u = math.sqrt(1.0 + 4.0 * big_l * y)
    kappas = model.r_mu_floats
    p = 0.0
    for j in range(len(kappas), 1, -1):
        p = p * y + (2 * j - 1) * kappas[j - 1]
    return (2.0 - 4.0 * big_l * x * x * (1.0 + 1.0 / (1.0 + u))) / (u * (1.0 + u)) - x * x * p


def rescaled_series_second_derivative(model, lam: float, x: float) -> float:
    """F''(x) = -8L^2 x (2u + 1) / (u^3 (1 + u)^2)
    - x sum_{j>=2} (2j - 1)(2j - 2) alpha_j y^{j-2}, in the notation of F above."""
    big_l = lam * lam
    y = (lam - 1.0) * (lam + 1.0) * x * x
    u = math.sqrt(1.0 + 4.0 * big_l * y)
    kappas = model.r_mu_floats
    p = 0.0
    for j in range(len(kappas), 1, -1):
        p = p * y + (2 * j - 1) * (2 * j - 2) * kappas[j - 1]
    return -8.0 * big_l * big_l * x * (2.0 * u + 1.0) / (u**3 * (1.0 + u) ** 2) - x * p


def find_critical_point(model, lam: float) -> float:
    """The unique x in (0, 1/sqrt(v)) with F'(x) = 0, by Newton's method kept
    inside a sign-change bracket.

    F' is strictly decreasing on the bracket (positive at 0+, negative at the
    right endpoint); absence of a sign change means lam is outside the regime
    the truncated series can resolve and raises RegimeError.  A non-finite F'
    at an end (lam^2 y^n overflows, far past that regime) raises
    OverflowError: floats, not the truncation, are what fails there.  The
    iteration starts from circular's closed-form critical point divided by
    sqrt(v): exact for circular, and the limit 1/sqrt(3v) as lam -> 1 for
    every model.
    Each F' value moves one end of the bracket to the point by its sign; a
    Newton step that leaves the bracket, or is more than half the step before
    it (Newton creeping down a steep polynomial, from a start far right of
    the root when v is small), or F'' >= 0, gives way to the midpoint.  The
    iteration stops once a Newton step is at most 1e-13 x: the critical value
    is quadratic in the error of x, so F(x*) is then correct to float
    precision.
    """
    v = float(model.v)
    if v <= 0:
        raise RegimeError("v = 0: Haar-unitary regime has no norm blow-up law")
    if lam <= 1:
        raise ValueError("requires lam > 1")
    if not model.r_mu_is_z and lam - 1 < TRUNCATED_LAMBDA_GUARD:
        raise RegimeError(
            f"lam - 1 = {lam - 1:g} under the truncation guard {TRUNCATED_LAMBDA_GUARD:g} "
            f"for a finitely-truncated model"
        )
    hi = 1.0 / math.sqrt(v)
    lo = 1e-9 * hi
    # called through the module global, so a tracer or a test can count F' calls
    f_lo, f_hi = rescaled_series_derivative(model, lam, lo), rescaled_series_derivative(model, lam, hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise OverflowError(f"F' endpoint values ({f_lo:g}, {f_hi:g}) are not finite")
    if f_lo <= 0 or f_hi >= 0:
        raise RegimeError(
            f"F' endpoint signs ({f_lo:g}, {f_hi:g}) admit no bracketed root; "
            f"lam = {lam} too far from 1 for truncation order {model.order}"
        )
    x = circular_norm_closed_form(lam)[2] * hi
    last_step = math.inf
    for _ in range(200):
        d1 = rescaled_series_derivative(model, lam, x)
        if d1 == 0.0:
            return x
        if d1 > 0.0:
            lo = x
        else:
            hi = x
        d2 = rescaled_series_second_derivative(model, lam, x)
        if d2 < 0.0:
            step = d1 / d2
            # tested before the bracket: a converged step may round onto the
            # end just set at x, and a midpoint there would restart a bisection
            if abs(step) <= 1e-13 * x:
                return x - step
            if lo < x - step < hi and 2.0 * abs(step) <= last_step:
                last_step = abs(step)
                x -= step
                continue
        last_step = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
    return x


def circular_norm_closed_form(lam: float) -> tuple[float, float, float]:
    """(norm, m_lambda, x*) for R_mu(z) = z, the circular model, in closed form.

    With r = 2 z^2 and L = lam^2, B'(z) = 0 is the quadratic
    2L r^2 + (1 - 4L) r + 2(L - 1) = 0, whose root in (0, 1) is
    r = 4m / (4L - 1 + s) for m = (lam - 1)(lam + 1) and s = sqrt(8L + 1).
    There -B(z*) = r^{3/2} / (sqrt(2) (1 - r)), which is inf_spec(lam)^{1/2}
    identically because (s + 3)^3 (s - 1) = 8(8L^2 + 20L - 1 + s^3).  Written
    in s alone, every factor below is positive, so nothing cancels; m is
    formed as (lam - 1)(lam + 1) rather than lam*lam - 1 for the same reason.
    """
    if lam <= 1:
        raise ValueError("requires lam > 1")
    m = (lam - 1.0) * (lam + 1.0)
    s = math.sqrt(8.0 * lam * lam + 1.0)
    norm = math.sqrt(s - 1.0) * ((s + 3.0) / (4.0 * m)) ** 1.5
    x_star = 2.0 / math.sqrt((s + 3.0) * (s - 1.0))
    return norm, 1.0 / norm, x_star


def series_norm(model, lam: float) -> tuple[float, float, float]:
    """(norm, m_lambda, x*) from the critical point of F (find_critical_point).

    m_lambda = (lam^2 - 1)^{3/2} F(x*) and norm = 1 / m_lambda.  This is the
    route for every truncated R-series; on the circular model it is the
    independent check of circular_norm_closed_form, which it matches to
    2e-15 relative for lam - 1 down to 1e-10.
    """
    x_star = find_critical_point(model, lam)
    m = (lam - 1.0) * (lam + 1.0)
    f_val = rescaled_series_value(model, lam, x_star)
    if f_val <= 0:
        raise RegimeError(f"critical value F(x*) = {f_val:g} not positive at lam = {lam}")
    m_lambda = m**1.5 * f_val
    return 1.0 / m_lambda, m_lambda, x_star


def resolvent_norm(model, lam: float) -> NormResult:
    """||(lam - a)^{-1}|| = 1 / ((lam^2-1)^{3/2} F(x*)).

    When the model's R_mu(z) is exactly z (``r_mu_is_z``: the circular
    model's class) the critical value comes from
    circular_norm_closed_form, with no F' evaluation.  Every other model
    solves F' = 0 on its truncated series (series_norm), because a truncated
    R_mu has no closed-form critical point; those results carry the route tag
    'series-truncated'.
    """
    if model.r_mu_is_z:
        norm, m_lambda, x_star = circular_norm_closed_form(lam)
    else:
        norm, m_lambda, x_star = series_norm(model, lam)
    asym = asymptotic_norm(float(model.v), lam)
    route = "series-exact" if model.r_mu_is_z else "series-truncated"
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
