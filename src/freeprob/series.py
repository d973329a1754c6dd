"""Truncated formal power series and the negative-moment pipeline.

Series coefficients can be Fractions, ring.Poly elements, or floats; the
arithmetic is the same code path.  Truncation is explicit: an operation never
manufactures coefficients past the shorter operand's order.

The negative moments of the shifted squared modulus come from inverting the
rescaled series whose functional inverse is the Cauchy transform near zero;
the rescaling keeps every coefficient polynomial (no square roots appear for
odd series).  The inverse is solved for coefficient by coefficient from the
polynomial equation it satisfies; Lagrange inversion and the fixed-point
iteration stay as its oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import noncrossing as nc
from .ring import Poly, RationalExpr


def _is_zero(c) -> bool:
    return c == 0


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
    if isinstance(c, Poly):
        if not c.is_constant():
            raise ZeroDivisionError("series constant term is a non-constant polynomial")
        c = c.constant_value()
    if isinstance(c, Fraction) or isinstance(c, int):
        if c == 0:
            raise ZeroDivisionError("series constant term is zero")
        return Fraction(1) / Fraction(c)
    if c == 0:
        raise ZeroDivisionError("series constant term is zero")
    return 1.0 / c


def _divide_by_int(c, k: int):
    if isinstance(c, float):
        return c / k
    if isinstance(c, Poly):
        return c * Fraction(1, k)
    return Fraction(c) / k


# ---------------------------------------------------------------------------
# Square-root series
# ---------------------------------------------------------------------------


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
        coeffs[2 * ell - 1] = sign * nc.catalan(ell - 1) * _coerce_scalar(lam_sq) ** ell
        ell += 1
    return FormalSeries(coeffs, order, parity="odd")


def _coerce_scalar(x):
    if isinstance(x, (Poly, float)):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# The negative-moment pipeline
# ---------------------------------------------------------------------------

LAM_SQ = Poly.var("L")  # symbol for lam^2 in the symbolic pipeline


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
        b = kap + sign * nc.catalan(ell - 1) * _coerce_scalar(lam_sq) ** ell
        coeffs[2 * j + 1] = -b * m ** (j - 1)
    return FormalSeries(coeffs, order, parity="odd")


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


def solve_inverse_equation(mu_kappas: Sequence, lam_sq, k: int) -> list:
    """g_1, g_3, ..., g_{2k+1} of the compositional inverse g of
    rescaled_inverse_cauchy(mu_kappas, lam_sq, 2k + 1), without inverting it.

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
    O(N k^2) with N nonzero kappa_2n.  Coefficients may be Fractions, floats
    or Polys; g_{2j+1} = h_j.
    """
    m = _coerce_scalar(lam_sq) - 1
    one = 1.0 if isinstance(m, float) else Fraction(1)
    # (n, kappa_2n m^{n-2}) for the nonzero kappa_2n, n = 2 .. k + 1
    terms = [
        (n, kap * m ** (n - 2))
        for n, kap in enumerate(mu_kappas[1 : k + 1], start=2)
        if not _is_zero(kap)
    ]
    top = max((n for n, _ in terms), default=1)
    h: list = []
    h_sq: list = []
    odd_powers = {p: [] for p in range(3, 2 * top, 2)}  # h^3, h^5, ..., h^{2 top - 1}
    s: list = []
    s_sq: list = []
    h_s_sq: list = []
    for j in range(k + 1):
        q = 0
        for n, c in terms:
            if j - n + 1 >= 0:
                q = q + c * odd_powers[2 * n - 1][j - n + 1]
        h.append((one if j == 0 else h_s_sq[j - 1]) + q)
        if j == k:
            break
        h_sq.append(_square_coefficient(h, j))
        below = h
        for p, power in odd_powers.items():
            if j > k - (p - 1) // 2:  # [t^j] h^p is never read again
                break
            power.append(_product_coefficient(below, h_sq, j))
            below = power
        s.append((m if j == 0 else 0) + h[j] + m * q)
        s_sq.append(_square_coefficient(s, j))
        h_s_sq.append(_product_coefficient(h, s_sq, j))
    return h


def negative_moments_lagrange(model, k: int, lam=None):
    """m_{-2}(mu_lam), ..., m_{-2k-2}(mu_lam): m_{-2j-2} = g_{2j+1} / m^{3j+1}.

    g is the compositional inverse of the rescaled inverse-Cauchy series
    (``rescaled_inverse_cauchy``), m = lam^2 - 1.  Its coefficients come from
    the polynomial equation g satisfies (``solve_inverse_equation``), not by
    Lagrange inversion; ``lagrange_invert`` stays as the oracle in verify
    and the tests, and the route keeps the name ``lagrange``.

    ``lam`` = None gives the symbolic answer: a list of RationalExpr in the
    symbols L (= lam^2), v, a3, a4, ... as supplied by the model; a Fraction
    gives exact rationals; a float gives floats.

    Requires k >= 0 and modulus cumulants kappa_2n(mu) = alpha_n through
    n = k + 1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    need = k + 1
    kappas = _mu_cumulants_symbols(model, need) if lam is None else _mu_cumulants_exact(model, need)
    if lam is None:
        lam_sq = LAM_SQ
    elif isinstance(lam, float):
        lam_sq = lam * lam
    else:
        lam_sq = Fraction(lam) ** 2
    g = solve_inverse_equation(kappas, lam_sq, k)
    m = _coerce_scalar(lam_sq) - 1
    out = []
    for j, b in enumerate(g):
        if lam is None:
            out.append(RationalExpr(Poly.coerce(b), (LAM_SQ - 1) ** (3 * j + 1)))
        else:
            out.append(b / m ** (3 * j + 1))
    return out


def _mu_cumulants_exact(model, count: int) -> list:
    """kappa_2(mu) .. kappa_2count(mu), i.e. alpha_1 .. alpha_count."""
    if model.r_mu_closed_form:
        return [Fraction(1)] + [Fraction(0)] * (count - 1)
    return [model.alpha_at(n) for n in range(1, count + 1)]


def _mu_cumulants_symbols(model, count: int) -> list:
    """kappa_2 = 1, kappa_4 = v - 1, higher ones kappa_2n(mu) = alpha_n named
    a3, a4, ... when the model supplies them (their exact values substitute at
    evaluation time)."""
    out: list = [Fraction(1)]
    if count >= 2:
        out.append(Poly.var("v") - 1)
    for n in range(3, count + 1):
        if not model.r_mu_closed_form:
            model.alpha_at(n)  # raises if unavailable
        out.append(Poly.var(f"a{n}"))
    return out


def symbolic_model_assignment(model, lam) -> dict:
    """Assignment dict evaluating the symbolic negative moments for a model."""
    assignment = {"L": Fraction(lam) ** 2 if not isinstance(lam, float) else lam * lam,
                  "v": model.v}
    for n in range(3, model.order + 1):
        assignment[f"a{n}"] = model.alpha_at(n)
    return assignment


def asymptotic_negative_moment(v, k: int, lam) -> float:
    """Leading-order negative moment C^(2)_k v^k / (lam^2-1)^{3k+1} as lam -> 1."""
    if v <= 0:
        raise ValueError("requires v > 0 (excluded Haar-unitary regime)")
    if lam <= 1:
        raise ValueError("requires lam > 1")
    if isinstance(lam, float):
        return nc.fuss_catalan(2, k) * v**k / (lam * lam - 1) ** (3 * k + 1)
    lam = Fraction(lam)
    return nc.fuss_catalan(2, k) * Fraction(v) ** k / (lam * lam - 1) ** (3 * k + 1)
