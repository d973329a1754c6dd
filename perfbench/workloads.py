"""Seeded request lists for the three workloads.

A request is ``{"id", "kind", "argv", "ref"}``: ``argv`` is exactly what the
program receives, ``ref`` is what the checker needs to rebuild the reference
(never passed to the program).  The same (workload, seed, seconds) always
gives byte-identical argv lists and model files.

Each workload is a fixed mix of request classes ("slots"), and the seed picks
the values inside each class (lambda, model atoms, which inverse densities)
and the order of the requests.  The classes are chosen from the costs
measured on the seed program so that the median and the 90th percentile of
request latency each fall well inside a block of requests of about equal
cost.  A quantile that falls between two classes of different cost jumps
from run to run; one inside a block moves only with the machine.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

# Requests per measured second, calibrated on the seed program so that one
# run lasts about --seconds and, with the refusals of ``models`` taken out,
# the p90 still has at least ten samples above it; never fewer than
# MIN_REQUESTS.
RATE = {"spectral": 4.4, "exact": 4.8, "models": 5.4}
MIN_REQUESTS = 100


def request_count(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(RATE[workload] * seconds))


def _quota(total: int, shares: dict) -> list:
    """Keys of ``shares`` repeated in proportion to their shares, ``total`` in all."""
    names = list(shares)
    counts = [math.floor(total * shares[n]) for n in names]
    order = sorted(range(len(names)), key=lambda i: total * shares[names[i]] - counts[i], reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return [n for n, c in zip(names, counts) for _ in range(c)]


def _decimal_lambda(value: float, places: int = 4) -> str:
    return f"{value:.{places}f}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rational_lambda(rng: random.Random, digits: int) -> str:
    """p/q in (1, 3) in lowest terms, q of exactly ``digits`` decimal digits."""
    q = rng.randrange(max(2, 10 ** (digits - 1)), 10**digits)
    while True:
        p = rng.randrange(q + 1, 3 * q)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def _slots(rng: random.Random, count: int, classes: dict) -> list[tuple]:
    """``classes`` maps (name, parameter tuple) to a share; returns the
    parameter tuples of ``count`` slots in a seeded order.  A parameter tuple
    of tuples cycles through its members inside the class."""
    slots = []
    for (name, params), n in Counter(_quota(count, classes)).items():
        choices = params if params and isinstance(params[0], tuple) else (params,)
        slots += [(name, *choices[i % len(choices)]) for i in range(n)]
    rng.shuffle(slots)
    return slots


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

# Seed costs: a norm sweep takes a few ms, a density about 3 ms per grid
# point (three Cauchy transforms of 48 cubic solves each), quadrature the
# same plus the integrals.  Cumulative shares: fast 0-35 %, the p50 block
# (40-point densities) 35-66 %, 56-point densities to 78 %, and the p90 block
# (80-point quadrature) 78-100 %.
SPECTRAL = {
    ("norm", ()): 0.23,
    ("density", (24,)): 0.12,
    ("density", (40,)): 0.31,
    ("density", (56,)): 0.12,
    ("quadrature", (80,)): 0.22,
}


def _spectral(rng: random.Random, count: int, write) -> list[dict]:
    slots = _slots(rng, count, SPECTRAL)
    n_density = sum(1 for s in slots if s[0] == "density")
    inverse = [i < n_density // 4 for i in range(n_density)]
    rng.shuffle(inverse)
    out = []
    for kind, *params in slots:
        if kind == "density":
            lam = _decimal_lambda(_log_uniform(rng, 1.01, 11.0))
            inv = inverse.pop()
            argv = ["density", "--lambda", lam, "--points", str(params[0])] + (["--inverse"] if inv else [])
            ref = {"lam": lam, "points": params[0], "inverse": inv}
        elif kind == "quadrature":
            # a grid of tens of points resolves the inner lobe of the density
            # only away from lambda = 1 (see circular.density)
            lam = _decimal_lambda(_log_uniform(rng, 1.5, 11.0))
            k = rng.randrange(2, 7)
            argv = ["moments", "--route", "quadrature", "--lambda", lam, "--k", str(k),
                    "--points", str(params[0])]
            ref = {"lam": lam, "k": k}
        else:
            start = 1.0 + _log_uniform(rng, 1e-3, 0.5)
            end = start + rng.uniform(0.5, 9.0)
            steps = rng.randrange(10, 41)
            argv = ["norm", "--model", "circular", "--lambda-start", _decimal_lambda(start, 6),
                    "--lambda-end", _decimal_lambda(end, 6), "--steps", str(steps)]
            ref = {"model": "circular", "steps": steps}
        out.append({"kind": kind, "argv": argv, "ref": ref})
    return out


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

# Seed costs: Lagrange k = 20 about 0.12 s, k = 30 with a 2-digit
# denominator about 0.45 s, k = 40 up to 1.8 s; count nc n = 10 about 0.56 s,
# n = 11 about 1.7 s; everything else in the fast group is under 0.15 s (the
# first k = 3 diagram request pays the 0.4 s profile_table(3) miss).
# Cumulative shares: fast 0-43 %, the p50 block (k = 20) 43-71 %, k = 25
# to 77 %, the p90 block (k = 30) 77-98 %, then the largest cases.
EXACT = {
    ("tilings", ((1,), (2,), (3,), (4,), (5,), (6,))): 0.10,
    ("count-psd", ((0,), (1,), (2,), (3,))): 0.07,
    ("psd", ((1, 1), (2, 2), (3, 3))): 0.10,
    ("nc", ((6,), (7,), (8,), (9,))): 0.07,
    ("lagrange", ((10, 1), (10, 2), (10, 3))): 0.09,
    ("lagrange", (20, 2)): 0.28,
    ("lagrange", ((25, 1), (25, 3))): 0.06,
    ("lagrange", (30, 2)): 0.19,
    ("nc", ((10,), (11,), (10,))): 0.025,
    ("lagrange", (40, 3)): 0.015,
}


def _exact(rng: random.Random, count: int, write) -> list[dict]:
    out = []
    for kind, *params in _slots(rng, count, EXACT):
        if kind in ("lagrange", "psd"):
            k, digits = params
            lam = _rational_lambda(rng, digits)
            argv = ["moments", "--model", "circular", "--route", kind, "--lambda", lam, "--k", str(k)]
            out.append({"kind": kind, "argv": argv, "ref": {"lam": lam, "k": k, "alphas": None}})
            continue
        what = {"nc": "nc", "count-psd": "psd", "tilings": "tilings"}[kind]
        flag = "--n" if what == "nc" else "--k"
        out.append({"kind": "count", "argv": ["count", "--what", what, flag, str(params[0])],
                    "ref": {"what": what, "n": params[0]}})
    return out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def free_cumulants(moments: list[Fraction]) -> list[Fraction]:
    """kappa_1..kappa_N from m_1..m_N through M(z) = C(z M(z))."""
    n_max = len(moments)
    series = [Fraction(1)] + list(moments)  # M(z), coefficients 0..N
    powers = [[Fraction(1)] + [Fraction(0)] * n_max]  # M(z)^s, s = 0, 1, ...
    kappas: list[Fraction] = []
    for n in range(1, n_max + 1):
        powers.append([sum(powers[-1][i] * series[d - i] for i in range(d + 1))
                       for d in range(n_max + 1)])
        partial = sum(kappas[s - 1] * powers[s][n - s] for s in range(1, n))
        kappas.append(series[n] - partial)
    return kappas


def model_spec(rng: random.Random, order: int, name: str) -> dict:
    """A random R-diagonal model with an atomic a a* measure of mean 1.

    The atoms come in dyadic pairs 1 -/+ d of equal dyadic weight (plus an
    optional atom at 1), so every float in the file is exact and phi(aa*) = 1.
    The determining cumulants alpha are the free cumulants of the free
    cumulants of a a*; the modulus cumulants are the even free cumulants of
    the symmetrized modulus.  The program checks both at load.
    """
    units = 16
    center = rng.choice((0, 0, 4, 8))
    n_pairs = rng.randrange(1, 4)
    parts = [2] * n_pairs
    for _ in range((units - center) // 2 - n_pairs):
        parts[rng.randrange(n_pairs)] += 2
    atoms: list[tuple[Fraction, Fraction]] = []
    if center:
        atoms.append((Fraction(1), Fraction(center, units)))
    for p in parts:
        d = Fraction(2 * rng.randrange(8) + 1, 16)  # odd numerator: equal Fraction sizes
        atoms += [(1 - d, Fraction(p, 2 * units)), (1 + d, Fraction(p, 2 * units))]
    moments = [sum(w * x**n for x, w in atoms) for n in range(1, order + 1)]
    alpha = free_cumulants(free_cumulants(moments))
    interleaved = [m for moment in moments for m in (Fraction(0), moment)]
    mu = free_cumulants(interleaved)[1::2]
    return {
        "name": name,
        "alpha": [str(a) for a in alpha],
        "mu_even_cumulants": [str(k) for k in mu],
        "aa_star_measure": {"atoms": [{"x": float(x), "w": float(w)} for x, w in atoms]},
    }


# Seed costs are set by the load-time check: about 5 ms at order 4, 20 ms at
# 5, 0.1 s at 6, 0.45 s at 7 and 2.8 s at 8 (43,263 alternating partitions);
# the request itself adds a few ms (the first k = 3 diagram request adds the
# 0.4 s profile_table(3) miss).  Cumulative shares: orders 4-5 0-40 %, the
# p50 block (order 6) 40-72 %, the p90 block (order 7) 72-98.5 %, order 8 last.
# At each order half the requests are norm sweeps, 30 % Lagrange moments
# (k < order) and 20 % diagram moments (k <= 3).
ORDER_SHARES = {4: 0.22, 5: 0.18, 6: 0.32, 7: 0.265, 8: 0.015}
MODEL_KINDS = {"norm": 0.5, "lagrange": 0.3, "psd": 0.2}


def _models(rng: random.Random, count: int, write) -> list[dict]:
    classes = {}
    for order, share in ORDER_SHARES.items():
        for kind, kind_share in MODEL_KINDS.items():
            params = {"norm": tuple((order, s) for s in range(5, 13)),
                      "lagrange": tuple((order, k) for k in range(1, order)),
                      "psd": tuple((order, k) for k in (1, 2, 3))}[kind]
            classes[(kind, params)] = share * kind_share
    slots = _slots(rng, count, classes)
    # Sweep ends spread evenly (one draw per stratum) over lambda - 1 in
    # [0.05, 0.3]: how far a sweep reaches decides most refusals, so this
    # keeps their number steady from seed to seed.
    n_norm = sum(1 for s in slots if s[0] == "norm")
    ends = [math.exp(math.log(0.05) + math.log(6.0) * (i + rng.random()) / n_norm)
            for i in range(n_norm)]
    rng.shuffle(ends)
    out = []
    for i, (kind, order, param) in enumerate(slots):
        spec = model_spec(rng, order, f"bench-{i:03d}")
        model = write(f"model-{i:03d}.json", json.dumps(spec, indent=1) + "\n")
        if kind == "norm":
            start = 1.0 + _log_uniform(rng, 2e-3, 2e-2)
            end = 1.0 + ends.pop()
            argv = ["norm", "--model", model, "--lambda-start", _decimal_lambda(start, 6),
                    "--lambda-end", _decimal_lambda(end, 6), "--steps", str(param)]
            ref = {"model": model, "steps": param}
        else:
            lam = _rational_lambda(rng, 1 + i % 2)
            argv = ["moments", "--model", model, "--route", kind, "--lambda", lam, "--k", str(param)]
            ref = {"lam": lam, "k": param, "alphas": spec["alpha"]}
        out.append({"kind": kind, "argv": argv, "ref": ref})
    return out


GENERATORS = {"spectral": _spectral, "exact": _exact, "models": _models}


def generate(workload: str, seed: int, seconds: float, root: Path,
             run_dir: Path) -> tuple[list[dict], str]:
    """The request list and a digest of every argv list and model file.

    Model files are written under ``root / run_dir`` and named in argv as
    ``run_dir / name``, a path relative to ``root``, the worker's directory.
    """
    rng = random.Random(f"{workload}:{seed}")
    digest = hashlib.sha256()

    def write(name: str, text: str) -> str:
        (root / run_dir / name).write_text(text)
        digest.update(text.encode())
        return str(run_dir / name)

    requests = GENERATORS[workload](rng, request_count(workload, seconds), write)
    for i, req in enumerate(requests):
        req["id"] = i
        digest.update(json.dumps(req["argv"]).encode())
    return requests, digest.hexdigest()[:16]
