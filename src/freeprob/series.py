"""The negative-moment pipeline: negative moments of the shifted squared
modulus from the polynomial equation of an inverse series.

The negative moments come from inverting the rescaled series whose
functional inverse is the Cauchy transform near zero; the rescaling keeps
every coefficient polynomial (no square roots appear for odd series).  The
inverse is solved for coefficient by coefficient from the polynomial
equation it satisfies, on lists of coefficients that can be Python ints,
Fractions, floats or ring.Poly elements.  For circular at rational lam the
same coefficients come from a proved order-2 linear recurrence instead, in
O(1) big-integer steps each (``_circular_pairs``); the solve stays the
engine for every other model and for the float and symbolic forms, and is
the recurrence's reference in verify.  The truncated ``FormalSeries``,
Lagrange inversion and the fixed-point iteration stay as oracles, in
``freeprob.oracles``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import _oracle_forwarder
from . import noncrossing as nc

# perfbench/tracer.py wraps lagrange_invert through this module; ROADMAP item 1
# deletes this forwarder when it re-bases the tracer rows on freeprob.oracles.
__getattr__ = _oracle_forwarder(__name__, ("lagrange_invert",))


def _is_zero(c) -> bool:
    return c == 0


def _coerce_scalar(x):
    """Fraction for an exact rational; a float or a ring.Poly as it is."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else x


def _product_coefficient(a: list, b: list, j: int):
    """[t^j] of the product of two series known through t^j."""
    total = 0
    for i in range(j + 1):
        total = total + a[i] * b[j - i]
    return total


def _square_coefficient(a: list, j: int):
    """[t^j] of a^2, a known through t^j (each cross term once, doubled)."""
    total = 0
    for i in range((j + 1) // 2):
        total = total + a[i] * a[j - i]
    total = total + total
    if j % 2 == 0:
        total = total + a[j // 2] * a[j // 2]
    return total


def solve_inverse_equation(mu_kappas: Sequence, m, k: int) -> tuple[list, object]:
    """(H, C) with g_{2j+1} = H_j / C^j for j = 0 .. k, where g is the
    compositional inverse of oracles.rescaled_inverse_cauchy(mu_kappas, m + 1,
    2k + 1), found without inverting it.  ``m`` is lam^2 - 1, which the
    caller forms: a float m is best formed as (lam - 1)(lam + 1), which keeps
    its digits next to lam = 1.

    The shift term T = (1 - sqrt(1 + 4 lam^2 z^2))/(2z) solves
    z T^2 - T - lam^2 z = 0.  Substituting T = F - R_mu, F(G(w)) = w and the
    rescaling z = sqrt(m) y, w = -m^{3/2} W (m = lam^2 - 1) shows that
    y = g(W) solves

        y = W + Q(y) + y (m W + y + m Q(y))^2,
        Q(y) = sum_{n >= 2} kappa_2n m^{n-2} y^{2n-1}.

    y is odd, so y = W h(t) with t = W^2, and h = 1 + q + t h s^2 with
    s = m + h + m q and q = sum_n kappa_2n m^{n-2} t^{n-1} h^{2n-1}.  The t^j
    coefficient of the right side needs h_0 .. h_{j-1} only, so each h_j is
    one pass of convolutions: O(k^2) ring operations when R_mu(z) = z, and
    O(N k^2) with N nonzero kappa_2n.

    Graded integer scaling (the rule is stated once in notes/decisions.md,
    "Graded integers up to the last division").  Write m = a / b in lowest
    terms, let L be the lcm of the denominators of kappa_4 .. kappa_{2(k+1)}
    and C = b^2 L, and
    scale the t^j coefficient of every series by C^j, that of s by one more
    b: H_j = C^j h_j, Q_j = C^j q_j, S_j = b C^j s_j.  A product of j-graded
    coefficients carries C^j whatever the split of j, so the recurrence becomes

        H_0 = 1,  H_{j+1} = L (H S^2)_j + Q_{j+1}        (C / b^2 = L),
        S_0 = a + b,  S_j = b H_j + a Q_j,
        Q_j = sum_n K_n (H^{2n-1})_{j-n+1},  K_n = kappa_2n a^{n-2} b^n L^{n-1},

    and K_n is an integer (L^{n-1} clears kappa_2n's denominator for n >= 2),
    so every H_j is a Python int and no Fraction is normalised in the loop.
    For float and Poly (symbolic) coefficients a = m and b = L = 1, so C = 1
    and the same loop is the unscaled recurrence.
    """
    m = _coerce_scalar(m)
    exact = isinstance(m, Fraction)
    a, b = (m.numerator, m.denominator) if exact else (m, 1)
    big_l = math.lcm(*(Fraction(kap).denominator for kap in mu_kappas[1 : k + 1])) if exact else 1
    one = 1.0 if isinstance(m, float) else 1
    # (n, K_n) for the nonzero kappa_2n, n = 2 .. k + 1
    terms = []
    for n, kap in enumerate(mu_kappas[1 : k + 1], start=2):
        if not _is_zero(kap):
            c = kap * a ** (n - 2) * b**n * big_l ** (n - 1)
            terms.append((n, Fraction(c).numerator if exact else c))
    top = max((n for n, _ in terms), default=1)
    h: list = []
    h_sq: list = []
    odd_powers = {p: [] for p in range(3, 2 * top, 2)}  # H^3, H^5, ..., H^{2 top - 1}
    s: list = []
    s_sq: list = []
    h_s_sq: list = []
    for j in range(k + 1):
        q = 0
        for n, c in terms:
            if j - n + 1 >= 0:
                q = q + c * odd_powers[2 * n - 1][j - n + 1]
        h.append((one if j == 0 else big_l * h_s_sq[j - 1]) + q)
        if j == k:
            break
        h_sq.append(_square_coefficient(h, j))
        below = h
        for p, power in odd_powers.items():
            if j > k - (p - 1) // 2:  # [t^j] H^p is never read again
                break
            power.append(_product_coefficient(below, h_sq, j))
            below = power
        s.append((a if j == 0 else 0) + b * h[j] + a * q)
        s_sq.append(_square_coefficient(s, j))
        h_s_sq.append(_product_coefficient(h, s_sq, j))
    return h, b * b * big_l


def negative_moments_lagrange(model, k: int, lam=None):
    """m_{-2}(mu_lam), ..., m_{-2k-2}(mu_lam): m_{-2j-2} = g_{2j+1} / m^{3j+1}.

    g is the compositional inverse of the rescaled inverse-Cauchy series
    (``oracles.rescaled_inverse_cauchy``), m = lam^2 - 1.  Its coefficients
    come from the polynomial equation g satisfies (``solve_inverse_equation``),
    not by Lagrange inversion; ``oracles.lagrange_invert`` stays as the
    oracle in verify and the tests, and the route keeps the name ``lagrange``.
    At a rational lam on circular they come from the recurrence of
    ``_circular_pairs`` instead, in O(k) big-integer steps.

    ``lam`` = None gives the symbolic answer: a list of RationalExpr in the
    symbols L (= lam^2), v, a3, a4, ... as supplied by the model; a Fraction
    gives exact rationals; a float gives floats, with m formed as
    (lam - 1)(lam + 1): within 2e-15 relative of the exact value at
    Fraction(lam) for circular and two-atom, k <= 3, lam - 1 from 1e-10 to
    1e-2 (``lam*lam - 1`` lost 5.0e-8 at lam - 1 = 1e-8).

    Requires k >= 0 and modulus cumulants kappa_2n(mu) = alpha_n through
    n = k + 1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if lam is None:
        from .ring import Poly, RationalExpr

        kappas = _mu_cumulants_symbols(model, k + 1)
        m = Poly.var("L") - 1
        scaled, _ = solve_inverse_equation(kappas, m, k)
        return [RationalExpr(Poly.coerce(h), m ** (3 * j + 1)) for j, h in enumerate(scaled)]
    if not isinstance(lam, float):
        return [Fraction(n, d) for n, d in _lagrange_pairs(model, k, lam)]
    kappas = [model.alpha_at(n) for n in range(1, k + 2)]
    m = (lam - 1) * (lam + 1)
    scaled, _ = solve_inverse_equation(kappas, m, k)
    return [h / m ** (3 * j + 1) for j, h in enumerate(scaled)]


def _lagrange_pairs(model, k: int, lam) -> list[tuple[int, int]]:
    """Unreduced integer pairs (n_j, d_j) with n_j / d_j = m_{-2j-2}(mu_lam),
    j = 0 .. k, at rational lam; k >= 0.

    Circular (``model.r_mu_is_z``) goes by ``_circular_pairs``.  Otherwise,
    with m = lam^2 - 1 = a / b, g_{2j+1} / m^{3j+1} = H_j b^{3j+1} /
    (C^j a^{3j+1}) (``solve_inverse_equation``), the powers kept running.
    ``Fraction(n, d)`` reduces a pair once; ``n / d`` is the same float as
    ``float(Fraction(n, d))`` (notes/decisions.md), so ``cli`` prints the
    float column without normalising a Fraction.
    """
    if model.r_mu_is_z:
        return _circular_pairs(k, Fraction(lam))
    m = Fraction(lam) ** 2 - 1
    kappas = [model.alpha_at(n) for n in range(1, k + 2)]
    scaled, big_c = solve_inverse_equation(kappas, m, k)
    a, b = m.numerator, m.denominator
    num_step, den_step = b**3, big_c * a**3
    num, den = b, a
    out = []
    for h in scaled:
        out.append((h * num, den))
        num *= num_step
        den *= den_step
    return out


def _circular_recurrence(big_p, big_q) -> tuple[tuple, tuple, tuple]:
    """(A, B, C), each the coefficients (c_0, c_1, c_2, c_3) of a cubic in n,
    such that A(n) N_{n+2} = B(n) N_{n+1} - C(n) N_n for n >= 1, where
    N_n = Q^{3n+1} h_n, h = sum_n h_n t^n solves h = 1 + t h (lam^2 - 1 + h)^2
    and lam^2 = P / Q.  In L = lam^2 (P = L, Q = 1, N_n = h_n):

        A(n) = 2 (n + 2)(2n + 5)((8L + 1) n + 6L),
        B(n) = (8L + 1)(8L^2 + 20L - 1) n^3 + 3 (10L + 1)(8L^2 + 20L - 1) n^2
               + 2 (148L^3 + 357L^2 + 9L - 1) n + 120 L^2 (L + 2),
        C(n) = 2L (L - 1)^3 n (2n + 1)((8L + 1) n + 14L + 1).

    Made homogeneous in (P, Q), of degrees 1, 3 and 5, they give the
    recurrence of the integers H_n = Q^{2n} h_n; N_n = Q^{n+1} H_n multiplies
    B by Q and C by Q^2.  Plain ring operations only, so ring.Poly arguments
    give the symbolic coefficients; the proof (notes/decisions.md) is an
    exact identity on them in the tests.
    """
    lin = 8 * big_p + big_q
    quad = big_q * (8 * big_p * big_p + 20 * big_p * big_q - big_q * big_q)
    c_lead = 2 * big_p * (big_p - big_q) ** 3 * big_q * big_q
    c_tail = 14 * big_p + big_q
    lead = (120 * big_p, 20 * lin + 108 * big_p, 18 * lin + 24 * big_p, 4 * lin)
    mid = (120 * big_p * big_p * (big_p + 2 * big_q) * big_q,
           2 * (148 * big_p**3 + 357 * big_p * big_p * big_q + 9 * big_p * big_q * big_q - big_q**3) * big_q,
           3 * (10 * big_p + big_q) * quad,
           lin * quad)
    low = (0, c_lead * c_tail, c_lead * (2 * c_tail + lin), 2 * c_lead * lin)
    return lead, mid, low


def _circular_pairs(k: int, lam: Fraction) -> list[tuple[int, int]]:
    """``_lagrange_pairs`` for circular: (N_j, (P - Q)^{3j+1}) for j = 0 .. k,
    where lam = p/q, P = p^2, Q = q^2 and N_j = Q^{3j+1} h_j.

    For circular solve_inverse_equation has q = 0 and s = m + h, so
    m_{-2j-2} = h_j / m^{3j+1} with h = 1 + t h (m + h)^2, and m = (P - Q) / Q
    makes that N_j / (P - Q)^{3j+1}.  The N_n obey ``_circular_recurrence``
    from N_1 = P^2 Q^2 and N_2 = P^3 (P + 2Q) Q^3 (h_1 = L^2,
    h_2 = L^3 (L + 2)), and each step multiplies big integers by small ones
    only.  A(n) > 0 for n >= 1 and every lam, so each step is one exact
    integer division: O(1) big-integer operations per moment, where the solve
    costs O(j).
    """
    big_p, big_q = lam.numerator**2, lam.denominator**2
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = _circular_recurrence(big_p, big_q)
    nums = [big_q, (big_p * big_q) ** 2, big_p**3 * (big_p + 2 * big_q) * big_q**3][: k + 1]
    for n in range(1, k - 1):
        num, rest = divmod((((b3 * n + b2) * n + b1) * n + b0) * nums[n + 1]
                           - (((c3 * n + c2) * n + c1) * n + c0) * nums[n],
                           ((a3 * n + a2) * n + a1) * n + a0)
        if rest:
            raise ArithmeticError(f"circular recurrence: N_{n + 2} is not an integer")
        nums.append(num)
    a = big_p - big_q
    a_cubed, dens = a**3, [a]
    for _ in range(k):
        dens.append(dens[-1] * a_cubed)
    return list(zip(nums, dens))


def _mu_cumulants_symbols(model, count: int) -> list:
    """kappa_2 = 1, kappa_4 = v - 1, higher ones kappa_2n(mu) = alpha_n named
    a3, a4, ... for each alpha the model stores (their exact values
    substitute at evaluation time), and ``model.alpha_at(n)`` past that."""
    from .ring import Poly

    out: list = [Fraction(1)]
    if count >= 2:
        out.append(Poly.var("v") - 1)
    for n in range(3, count + 1):
        out.append(Poly.var(f"a{n}") if n <= model.order else model.alpha_at(n))
    return out


def symbolic_model_assignment(model, lam) -> dict:
    """Assignment dict evaluating the symbolic negative moments for a model."""
    assignment = {"L": Fraction(lam) ** 2 if not isinstance(lam, float) else lam * lam,
                  "v": model.v}
    for n in range(3, model.order + 1):
        assignment[f"a{n}"] = model.alpha_at(n)
    return assignment


def asymptotic_negative_moment(v, k: int, lam) -> Fraction | float:
    """Leading-order negative moment C^(2)_k v^k / (lam^2-1)^{3k+1} as lam -> 1.

    Exact at rational lam: the last pair of ``_asymptotic_pairs``, reduced
    once.  A float lam gives a float, with lam^2 - 1 formed as
    (lam - 1)(lam + 1), whose rounding the power raises 3k + 1 times: within
    (3k + 2) 2^-52 relative of the exact value at Fraction(lam) (2.4e-15 at
    k = 3) for lam - 1 down to 1e-10.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if v <= 0:
        raise ValueError("requires v > 0 (excluded Haar-unitary regime)")
    if lam <= 1:
        raise ValueError("requires lam > 1")
    if isinstance(lam, float):
        return nc.fuss_catalan(2, k) * v**k / ((lam - 1) * (lam + 1)) ** (3 * k + 1)
    return Fraction(*_asymptotic_pairs(v, k, lam)[k])


def _asymptotic_pairs(v, k: int, lam) -> list[tuple[int, int]]:
    """Unreduced integer pairs (n_j, d_j) with n_j / d_j the leading-order
    m_{-2j-2}, j = 0 .. k, at rational v > 0 and lam = p/q > 1 (the caller
    checks the domain, as ``asymptotic_negative_moment`` does).

    ``m = lam^2 - 1 = a/b`` with ``a = p^2 - q^2``, ``b = q^2`` and
    ``e = 3j + 1`` give ``C^(2)_j v_num^j b^e / (v_den^j a^e)``, with the
    powers and C^(2)_{j+1} = C^(2)_j 3(3j+1)(3j+2) / (2(j+1)(2j+3)) kept
    running.  As for ``_lagrange_pairs``, ``n / d`` is the float of the pair.
    """
    v, lam = Fraction(v), Fraction(lam)
    p, q = lam.numerator, lam.denominator
    a, b = p * p - q * q, q * q
    num_step, den_step = v.numerator * b**3, v.denominator * a**3
    num, den, fuss = b, a, 1
    out = []
    for j in range(k + 1):
        out.append((fuss * num, den))
        fuss = fuss * 3 * (3 * j + 1) * (3 * j + 2) // (2 * (j + 1) * (2 * j + 3))
        num *= num_step
        den *= den_step
    return out
