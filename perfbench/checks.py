"""Independent references and per-request output checks.

Nothing here imports freeprob: every reference is computed from a closed form,
a recorded table or a separate exact recursion, in the harness process, so the
timed worker's caches are never warmed by a check.

``check(request, stdout)`` returns ``(broken, errors)``: ``broken`` names the
exact identity the output breaks (None when all hold), ``errors`` maps each
floating-point quantity to its relative error against the reference.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

# A floating-point output is wrong (the run is not correct) past these errors.
# The norm is a closed form.  Densities and quadrature come from Stieltjes
# inversion on grids of tens of points: on the seed the mass defect stays
# below 5e-3 for lambda >= 1.01 and 24 points, and quadrature moments up to
# m_-14 stay within 2e-3 for lambda >= 1.5 and 48 points.
FLOAT_TOLERANCE = {"norm": 1e-9, "mass": 2e-2, "grid": 1e-9, "quadrature": 1e-2}

_PROFILES_FILE = Path(__file__).with_name("psd_profiles.json")


def _load_psd_profiles() -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Diagram counts by profile for k <= 3, as recorded from the seed program."""
    with open(_PROFILES_FILE) as fh:
        raw = json.load(fh)
    return {int(k): [(tuple(row[:-1]), row[-1]) for row in rows] for k, rows in raw.items()}


PSD_PROFILES = _load_psd_profiles()
PSD_TOTALS = {k: sum(c for _, c in rows) for k, rows in PSD_PROFILES.items()}


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def tilings(k: int) -> int:
    """4-gon tilings of the 2(k+1)-gon: (1/(2k+1)) C(3k, k)."""
    return math.comb(3 * k, k) // (2 * k + 1)


# ---------------------------------------------------------------------------
# Exact negative moments
# ---------------------------------------------------------------------------


def circular_negative_moments(lam: Fraction, k: int) -> list[Fraction]:
    """m_{-2}, ..., m_{-2k-2} of |lam - c|^2 for circular c, exactly.

    G(w) = sum over j of -m_{-2j-2} w^j near w = 0, and z = G(w) solves
    w z^3 - 2 w z^2 + (w - m) z - 1 = 0 with m = lam^2 - 1, so the
    coefficients follow from m c_n = [w^(n-1)] (z^3 - 2 z^2 + z).
    """
    m = lam * lam - 1
    c = [Fraction(-1) / m]
    sq = [c[0] * c[0]]  # coefficients of z^2
    cube = [sq[0] * c[0]]  # coefficients of z^3
    for n in range(1, k + 1):
        c.append((cube[n - 1] - 2 * sq[n - 1] + c[n - 1]) / m)
        sq.append(sum(c[i] * c[n - i] for i in range(n + 1)))
        cube.append(sum(c[i] * sq[n - i] for i in range(n + 1)))
    return [-x for x in c]


def psd_negative_moments(alphas: list[Fraction], lam: Fraction, k: int) -> list[Fraction]:
    """m_{-2}, ..., m_{-2k-2} from the recorded diagram counts (k <= 3).

    A diagram with profile (s_1, ..., s_{j+1}) contributes
    x^{s_1} y^{(j+1) + sum l s_l} prod alpha_l^{s_l}, x = 1/(lam^2-1),
    y = 1/lam^2; ``alphas`` lists alpha_1, alpha_2, ...
    """
    lam_sq = lam * lam
    x, y = 1 / (lam_sq - 1), 1 / lam_sq
    out = []
    for j in range(k + 1):
        total = Fraction(0)
        for profile, count in PSD_PROFILES[j]:
            term = Fraction(count) * x ** profile[0]
            term *= y ** ((j + 1) + sum(ell * profile[ell - 1] for ell in range(2, j + 2)))
            for ell in range(2, j + 2):
                if profile[ell - 1]:
                    term *= alphas[ell - 1] ** profile[ell - 1]
            total += term
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Circular spectrum in high precision
# ---------------------------------------------------------------------------


def support_endpoints(lam: float) -> tuple[float, float]:
    """(s-, s+) of |lam - c|^2 from the literal closed forms, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        l2 = Decimal(lam) ** 2
        root = (8 * l2 + 1).sqrt() ** 3
        s_minus = (8 * l2 * l2 + 20 * l2 - 1 - root) / (8 * l2)
        s_plus = (8 * l2 * l2 + 20 * l2 - 1 + root) / (8 * l2)
        return float(s_minus), float(s_plus)


def circular_norm(lam: float) -> float:
    """||(lam - c)^{-1}|| = (inf spec |lam - c|^2)^{-1/2}."""
    return 1.0 / math.sqrt(support_endpoints(lam)[0])


def chebyshev_rule(lo: float, hi: float, n: int) -> tuple[list[float], list[float]]:
    """Midpoint nodes t_i = mid - hw cos(theta_i) with weights hw sin(theta_i) pi/N."""
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    thetas = [(i + 0.5) * math.pi / n for i in range(n)]
    return [mid - hw * math.cos(th) for th in thetas], [hw * math.sin(th) * math.pi / n for th in thetas]


# ---------------------------------------------------------------------------
# Output parsing and the per-kind checks
# ---------------------------------------------------------------------------


class OutputError(ValueError):
    """Output that does not parse as the command's documented format."""


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise OutputError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _moment_column(stdout: str) -> list[float]:
    """The value column of a single-route ``moments`` table."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[0].startswith("k\tm_{-2k-2}\t"):
        raise OutputError("expected a moments table header")
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(r) < 3 for r in rows):
        raise OutputError("moments table row without a value column")
    return [float(r[2]) for r in rows]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_density(ref: dict, stdout: str):
    rows = _csv_rows(stdout, "t,rho")
    t = [float(r[0]) for r in rows]
    rho = [float(r[1]) for r in rows]
    n = ref["points"]
    if len(t) != n:
        return "density-row-count", {}
    if ref["inverse"]:  # rows are y = t^{-1/2} with rho_y = rho_t 2 / y^3
        rho = [r * y**3 / 2.0 for y, r in zip(t, rho)][::-1]
        t = [y**-2 for y in t][::-1]
    lo, hi = support_endpoints(float(Fraction(ref["lam"])))
    nodes, weights = chebyshev_rule(lo, hi, n)
    if any(r < 0 for r in rho):
        return "density-negative", {}
    grid_err = max(_rel(a, b) for a, b in zip(t, nodes))
    mass = sum(r * w for r, w in zip(rho, weights))
    return None, {"mass": abs(mass - 1.0), "grid": grid_err}


def _check_quadrature(ref: dict, stdout: str):
    values = _moment_column(stdout)
    exact = circular_negative_moments(Fraction(ref["lam"]), ref["k"])
    if len(values) != len(exact):
        return "moments-row-count", {}
    return None, {"quadrature": max(_rel(v, float(e)) for v, e in zip(values, exact))}


def _check_norm(ref: dict, stdout: str):
    rows = _csv_rows(stdout, "lambda,norm,asymptotic,ratio,route")
    if len(rows) != ref["steps"]:
        return "norm-row-count", {}
    norms = [float(r[1]) for r in rows]
    if not all(math.isfinite(x) and x > 0 for x in norms):
        return "norm-not-positive", {}
    if ref["model"] != "circular":
        return None, {}
    return None, {"norm": max(_rel(x, circular_norm(float(r[0]))) for x, r in zip(norms, rows))}


def _exact_rows(values: list[float], exact: list[Fraction], name: str):
    if len(values) < len(exact):
        return "moments-row-count", {}
    if any(v != float(e) for v, e in zip(values, exact)):
        return name, {}
    return None, {}


def _check_moments_exact(ref: dict, stdout: str):
    """Exact routes: every row equals the independent exact value."""
    values = _moment_column(stdout)
    lam = Fraction(ref["lam"])
    if ref["alphas"] is None:  # circular: the cubic series covers every k
        return _exact_rows(values, circular_negative_moments(lam, ref["k"]), "lagrange-psd-identity")
    alphas = [Fraction(a) for a in ref["alphas"]]
    k = min(ref["k"], max(PSD_PROFILES))
    return _exact_rows(values, psd_negative_moments(alphas, lam, k), "lagrange-psd-identity")


def _check_count(ref: dict, stdout: str):
    value = int(stdout.strip())
    what, n = ref["what"], ref["n"]
    expected = {"nc": catalan, "tilings": tilings, "psd": PSD_TOTALS.__getitem__}[what](n)
    return (None if value == expected else f"count-{what}"), {}


_CHECKS = {
    "density": _check_density,
    "quadrature": _check_quadrature,
    "norm": _check_norm,
    "lagrange": _check_moments_exact,
    "psd": _check_moments_exact,
    "count": _check_count,
}


def check(request: dict, stdout: str):
    """(broken identity or None, {quantity: relative error}) for one output."""
    try:
        return _CHECKS[request["kind"]](request["ref"], stdout)
    except (OutputError, ValueError, IndexError) as exc:
        return f"unparsable-output:{type(exc).__name__}", {}


def out_of_tolerance(errors: dict) -> list[str]:
    return [name for name, err in errors.items() if not err <= FLOAT_TOLERANCE[name]]
