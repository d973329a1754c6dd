"""Command-line frontend.

Subcommands:

* ``density``  -- CSV of the spectral density of |lam - c|^2 (or of the
  inverse modulus with --inverse),
* ``moments``  -- negative-moment table per route with cross-route deltas,
* ``norm``     -- resolvent-norm sweep CSV with the asymptotic ratio column,
* ``count``    -- exact combinatorial counts (nc / psd / tilings),
* ``verify``   -- the named invariant suites as a JSON report.

Exit codes: 0 success, 1 verification failure, 2 usage / precondition error.
Numbers serialize with 17 significant digits; exact rationals as 'p/q'.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import circular as ci
from . import models
from . import noncrossing as nc
from . import psd
from . import resolvent as rv
from . import series as se
from . import verify as ve

USAGE_ERROR = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


# ---------------------------------------------------------------------------


def cmd_density(args) -> int:
    lam = float(_parse_lambda_exact(args.lam))
    meas = ci.density(lam, args.points)
    if args.inverse:
        meas = ci.pushforward_inverse_sqrt(meas)
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
    routes = ("lagrange", "psd", "quadrature") if args.route == "all" else (args.route,)
    table: dict[str, list[float]] = {}
    exact: dict[str, list[Fraction]] = {}
    if "lagrange" in routes:
        exact["lagrange"] = se.negative_moments_lagrange(model, k, lam=lam)
        table["lagrange"] = [float(x) for x in exact["lagrange"]]
    if "psd" in routes:
        if k > psd.ENUMERATION_K_BOUND:
            raise CliError(f"psd route bound is k <= {psd.ENUMERATION_K_BOUND}")
        exact["psd"] = [psd.negative_moment_psd(model, lam, j) for j in range(k + 1)]
        table["psd"] = [float(x) for x in exact["psd"]]
    if "quadrature" in routes:
        if model.name != "circular":
            raise CliError("quadrature route needs the circular closed-form density")
        meas = ci.density(float(lam), args.points)
        table["quadrature"] = [
            meas.integrate(lambda t, j=j: t ** (-(j + 1.0))) for j in range(k + 1)
        ]
    v = model.v
    asym = [float(se.asymptotic_negative_moment(v, j, lam)) for j in range(k + 1)] if v > 0 else None

    header = ["k", "m_{-2k-2}"] + list(table)
    if asym:
        header.append("asymptotic")
    print("\t".join(header))
    for j in range(k + 1):
        row = [str(j), f"m_-{2 * j + 2}"] + [_fmt(table[r][j]) for r in table]
        if asym:
            row.append(_fmt(asym[j]))
        print("\t".join(row))
    if args.route == "all":
        exact_routes = [r for r in ("lagrange", "psd") if r in exact]
        worst_exact = 0
        for j in range(k + 1):
            vals = [exact[r][j] for r in exact_routes]
            worst_exact = max(worst_exact, max(vals) - min(vals))
        worst_quad = max(
            abs(table["quadrature"][j] - table["lagrange"][j]) / abs(table["lagrange"][j])
            for j in range(k + 1)
        )
        print(f"exact-route discrepancy: {worst_exact}")
        print(f"quadrature relative discrepancy: {_fmt(worst_quad)}")
    return 0


def cmd_norm(args) -> int:
    model = models.load_model(args.model)
    if float(rv.variance_v(model)) <= 0:
        print(f"model {model.name!r} has v = 0 (Haar-unitary regime): "
              f"no norm blow-up law applies", file=sys.stderr)
        return USAGE_ERROR
    start, end = float(_parse_lambda_exact(args.lam_start)), float(_parse_lambda_exact(args.lam_end))
    if not start < end:
        raise CliError("need 1 < lambda-start < lambda-end")
    steps = args.steps
    if steps < 2:
        raise CliError("need at least 2 steps")
    lines = ["lambda,norm,asymptotic,ratio,route"]
    for i in range(steps):
        lam = start + (end - start) * i / (steps - 1)
        res = rv.resolvent_norm(model, lam)
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
        print(sum(1 for _ in nc.enumerate_nc(args.n)))
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
    report = ve.run_suite(args.suite)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report["failed"] == 0 else 1


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
    p.add_argument("--points", type=int, default=2048, help="quadrature grid size")
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
    p.add_argument("--suite", choices=("all",) + ve.SUITES, default="all")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
