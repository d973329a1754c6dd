"""Command-line frontend.

Subcommands:

* ``density``  -- CSV of the spectral density of |lam - c|^2 (or of the
  inverse modulus with --inverse),
* ``moments``  -- negative-moment table per route with cross-route deltas,
* ``norm``     -- resolvent-norm sweep CSV with the asymptotic ratio column,
* ``count``    -- exact combinatorial counts (nc / psd / tilings),
* ``verify``   -- the named invariant suites as a JSON report.

Exit codes: 0 success, 1 verification failure, 2 usage / precondition error.
Numbers serialize with 17 significant digits; exact rationals as 'p/q'.  A
floating-point route never prints nan or inf: where floats cannot resolve
lambda it refuses the request (exit 2), naming lambda and the route.

``main(argv)`` can be called again and again in one process (the benchmark
worker and the tests do): the argparse tree is built on the first call and
reused, since ``parse_args`` keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from . import VERIFY_SUITES
from . import circular as ci
from . import models
from . import noncrossing as nc
from . import psd
from . import resolvent as rv
from . import series as se

USAGE_ERROR = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_exact(n: int, d: int) -> str:
    """The rational n / d (d != 0) to 17 significant digits.

    In the float range the text is format(n / d, ".17g"): _fmt of the
    correctly rounded float.  Past it (m_{-2k-2} grows without bound as
    lam -> 1) the text is the exact value correctly rounded to 17 significant
    digits, from integers alone: a lower bound on the decimal exponent from
    the bit lengths, raised until the quotient has 17 digits, then one integer
    division rounded half to even by comparing twice the remainder with the
    divisor.
    """
    try:
        x = n / d
    except OverflowError:
        x = math.inf
    if n == 0 or sys.float_info.min <= abs(x) < math.inf:
        return format(x, ".17g")
    num, den = abs(n), abs(d)
    # 10^(shift + 16) <= num / den: the bit lengths bound log10(num / den) from below
    shift = math.floor((num.bit_length() - den.bit_length() - 2) * math.log10(2)) - 16
    while True:
        top, bottom = (num, den * 10**shift) if shift >= 0 else (num * 10**-shift, den)
        quotient, rest = divmod(top, bottom)
        if quotient < 10**17:
            break
        shift += 1
    if 2 * rest > bottom or (2 * rest == bottom and quotient % 2):
        quotient += 1  # 17 digits, or 10^17 rounded up
    digits = str(quotient)
    sign = "-" if (n < 0) != (d < 0) else ""
    mantissa = (digits[0] + "." + digits[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{shift + len(digits) - 1:+03d}"


class CliError(Exception):
    pass


def _parse_lambda_exact(text: str) -> Fraction:
    try:
        lam = Fraction(text)
    except ValueError as exc:
        raise CliError(f"not a number: {text!r}") from exc
    if lam <= 1:
        raise CliError(f"lambda must exceed 1, got {text}")
    return lam


def _unresolved(route: str, lam: str, why) -> CliError:
    """The refusal of a floating-point route that cannot resolve lambda.

    Floats carry lambda only so far: lambda^2 overflows past about 1e154,
    and the support of |lambda - c|^2, about 8 lambda wide at lambda^2, holds
    fewer floats than the density grid has nodes from about 1e11 (2048 nodes)
    or 3e12 (512 nodes) on.  There a step overflows, the grid fails its
    checks (a ValueError), or a value comes out nan or inf; the request is
    refused (exit 2) naming lambda and the route.
    """
    if isinstance(why, OverflowError):
        why = "a float overflows"
    return CliError(f"the floating-point {route} route cannot resolve lambda = {lam}: {why}")


def _float_lambda(route: str, text: str) -> float:
    try:
        lam = float(_parse_lambda_exact(text))
    except OverflowError as exc:
        raise _unresolved(route, text, exc) from None
    if lam == 1.0:
        raise _unresolved(route, text, "it rounds to 1 as a float")
    return lam


def _require_finite(route: str, lam: str, *columns) -> None:
    # a sum is finite only if every term is (and a sum that overflows refuses too)
    if not math.isfinite(sum(map(sum, columns))):
        raise _unresolved(route, lam, "a value is not finite")


# ---------------------------------------------------------------------------


def cmd_density(args) -> int:
    lam = _parse_lambda_exact(args.lam)
    if args.points < 1:
        raise CliError(f"--points must be >= 1, got {args.points}")
    try:
        meas = ci.density(float(lam), args.points)
        if args.inverse:
            meas = ci.pushforward_inverse_sqrt(meas)
    except (ArithmeticError, ValueError) as exc:
        raise _unresolved("density", args.lam, exc) from None
    _require_finite("density", args.lam, meas.grid, meas.density)
    lines = ["t,rho"]
    for t, rho in zip(meas.grid, meas.density):
        lines.append(f"{_fmt(t)},{_fmt(rho)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_moments(args) -> int:
    model = models.load_model(args.model)
    lam = _parse_lambda_exact(args.lam)
    k = args.k
    if k < 0:
        raise CliError(f"--k must be >= 0, got {k}")
    if args.route == "all":
        routes = ("lagrange", "psd") + (("quadrature",) if model.r_mu_is_z else ())
    else:
        routes = (args.route,)
    if "psd" in routes and k > psd.PSD_MOMENTS_K_BOUND:
        raise CliError(f"psd route bound is k <= {psd.PSD_MOMENTS_K_BOUND}")
    if "quadrature" in routes and not model.r_mu_is_z:
        raise CliError("quadrature route needs the circular closed-form density")
    if "quadrature" in routes:
        try:
            quad = _quadrature_column(lam, args.lam, k, args.points)
        except CliError as exc:
            # the grid misses the inner lobe, or floats cannot resolve lambda:
            # refuse, or leave the column out
            if args.route == "quadrature" or args.points < 1:
                raise
            print(f"quadrature column omitted: {exc}", file=sys.stderr)
            routes = ("lagrange", "psd")
    # Exact values arrive as unreduced integer pairs n / d, printed without
    # normalising a Fraction; Fractions are built only for the discrepancies
    # of --route all.
    table: dict[str, list[str]] = {}
    exact: dict[str, list[Fraction]] = {}
    if "lagrange" in routes:
        pairs = se._lagrange_pairs(model, k, lam)
        table["lagrange"] = [_fmt_exact(n, d) for n, d in pairs]
        if args.route == "all":
            exact["lagrange"] = [Fraction(n, d) for n, d in pairs]
    if "psd" in routes:
        exact["psd"] = psd.negative_moments_psd(model, k, lam)
        table["psd"] = [_fmt_exact(x.numerator, x.denominator) for x in exact["psd"]]
    if "quadrature" in routes:
        table["quadrature"] = [_fmt(q) for q in quad]
    v = model.v
    if v > 0:
        table["asymptotic"] = [_fmt_exact(n, d) for n, d in se._asymptotic_pairs(v, k, lam)]

    print("\t".join(["k", "m_{-2k-2}"] + list(table)))
    for j in range(k + 1):
        print("\t".join([str(j), f"m_-{2 * j + 2}"] + [table[r][j] for r in table]))
    if args.route == "all":
        worst_exact = max(abs(a - b) for a, b in zip(exact["lagrange"], exact["psd"]))
        print(f"exact-route discrepancy: {worst_exact}")
        if "quadrature" in table:
            worst_quad = max(_relative_gap(q, x) for q, x in zip(quad, exact["lagrange"]))
            print(f"quadrature relative discrepancy: {_fmt(worst_quad)}")
    return 0


def _quadrature_column(lam: Fraction, text: str, k: int, points: int) -> list[float]:
    """m_{-2}, ..., m_{-2k-2} by quadrature against the circular density on
    ``points`` nodes.  Refused below ``circular.quadrature_points_needed`` (the
    grid misses the inner lobe of the density at this k) and where floats
    cannot resolve lambda."""
    try:
        x = float(lam)
        needed = ci.quadrature_points_needed(x, k)
        if points < needed:
            raise CliError(f"--points {points} cannot resolve the inner lobe of the density at "
                           f"lambda = {text}; the quadrature route needs --points >= {needed} "
                           f"for k = {k}")
        meas = ci.density(x, points)
        quad = [meas.integrate(lambda t, j=j: t ** (-(j + 1.0))) for j in range(k + 1)]
    except (ArithmeticError, ValueError) as exc:
        raise _unresolved("quadrature", text, exc) from None
    _require_finite("quadrature", text, quad)
    return quad


def _relative_gap(q: float, x: Fraction) -> float:
    """|q - x| / |x| for a finite float q and an exact x != 0: in floats while
    x fits one, exactly past the float range."""
    try:
        return abs(q - float(x)) / abs(float(x))
    except OverflowError:
        return float(abs(Fraction(q) - x) / abs(x))


def cmd_norm(args) -> int:
    model = models.load_model(args.model)
    v = float(model.v)
    if v == 0:
        print(f"model {model.name!r} has v = 0 (Haar-unitary regime): "
              f"no norm blow-up law applies", file=sys.stderr)
        return USAGE_ERROR
    if v < 0:
        print(f"model {model.name!r} has v = {_fmt(v)} < 0, and no operator has a negative v "
              f"(v = phi((aa*)^2) - 1 >= phi(aa*)^2 - 1 = 0)", file=sys.stderr)
        return USAGE_ERROR
    start, end = (_float_lambda("norm", text) for text in (args.lam_start, args.lam_end))
    if not start < end:
        raise CliError("need 1 < lambda-start < lambda-end")
    steps = args.steps
    if steps < 2:
        raise CliError("need at least 2 steps")
    lines = ["lambda,norm,asymptotic,ratio,route"]
    for i in range(steps):
        lam = start + (end - start) * i / (steps - 1)
        try:
            res = rv.resolvent_norm(model, lam)
        except OverflowError as exc:
            raise _unresolved("norm", _fmt(lam), exc) from None
        if not math.isfinite(res.norm + res.asymptotic + res.ratio):
            raise _unresolved("norm", _fmt(lam), "a value is not finite")
        lines.append(
            f"{_fmt(lam)},{_fmt(res.norm)},{_fmt(res.asymptotic)},{_fmt(res.ratio)},{res.route}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args) -> int:
    if args.what == "nc":
        if args.n is None:
            raise CliError("count nc needs --n")
        print(nc.count_nc(args.n))
    elif args.what == "tilings":
        if args.k is None:
            raise CliError("count tilings needs --k")
        print(psd.count_quadrangulations(args.k))
    elif args.what == "psd":
        if args.k is None:
            raise CliError("count psd needs --k")
        if args.profile:
            profile = tuple(int(x) for x in args.profile.split(","))
            print(psd.profile_count(args.k, profile))
        else:
            print(sum(psd.profile_table(args.k).values()))
    return 0


def cmd_verify(args) -> int:
    import json

    from . import verify  # the registry and json load only for this subcommand

    report = verify.run_suite(args.suite)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report["failed"] == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeprob",
        description="Free-probability toolkit: circular-shift spectra, "
        "negative moments by three routes, and resolvent norm asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="CSV density of |lam - c|^2")
    p.add_argument("--lambda", dest="lam", required=True, help="shift parameter, > 1")
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--inverse", action="store_true", help="density of |lam - c|^{-1} instead")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("moments", help="negative moments per route")
    p.add_argument("--model", default="circular", help="builtin name or model JSON path")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, default=3, help="largest k in m_{-2k-2}")
    p.add_argument("--route", choices=("lagrange", "psd", "quadrature", "all"), default="all")
    p.add_argument("--points", type=int, default=2048,
                   help="quadrature grid size; refused when too coarse for the inner lobe")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("norm", help="resolvent norm sweep CSV")
    p.add_argument("--model", default="circular")
    p.add_argument("--lambda-start", dest="lam_start", required=True)
    p.add_argument("--lambda-end", dest="lam_end", required=True)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("count", help="exact combinatorial counts")
    p.add_argument("--what", choices=("nc", "psd", "tilings"), required=True)
    p.add_argument("--n", type=int, help="ground-set size for nc")
    p.add_argument("--k", type=int, help="disc parameter for psd / tilings")
    p.add_argument("--profile", help="comma list s1,s2,... for psd")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify", help="run the named verification suites")
    p.add_argument("--suite", choices=("all",) + VERIFY_SUITES, default="all")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
