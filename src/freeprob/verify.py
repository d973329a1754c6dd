"""Named verification suite: every structural identity the package promises,
with measured residuals.

Checks are grouped into three suites:

* ``combinatorial`` -- exact counting and polynomial identities,
* ``analytic``      -- transform consistency, densities, subordination,
* ``asymptotic``    -- blow-up laws, coefficient limits, bounds.

Each check returns a record {name, suite, passed, residual, tolerance,
detail, seconds}; residual is the worst measured deviation (0.0 for exact
checks that hold) and seconds the wall time the check took.  The CLI
serializes the records as JSON and exits non-zero when any check fails.

The registry is the one place each of these invariants is derived: the tests
assert the records (one pytest id per check) instead of recomputing them.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from . import circular as ci
from . import cumulants as cu
from . import models
from . import noncrossing as nc
from . import psd
from . import resolvent as rv
from . import series as se
from .ring import Poly, RationalExpr

SUITES = ("combinatorial", "analytic", "asymptotic")


class Check:
    def __init__(self, name, suite, fn):
        self.name = name
        self.suite = suite
        self.fn = fn


_REGISTRY: list[Check] = []


def _register(name, suite):
    def deco(fn):
        _REGISTRY.append(Check(name, suite, fn))
        return fn

    return deco


def _record(passed, residual, tolerance, detail=""):
    return {"passed": bool(passed), "residual": float(residual), "tolerance": tolerance, "detail": detail}


# ---------------------------------------------------------------------------
# combinatorial
# ---------------------------------------------------------------------------


@_register("nc-catalan-counts", "combinatorial")
def _check_nc_counts():
    for n in range(1, 11):
        count = sum(1 for _ in nc.enumerate_nc(n))
        if count != nc.fuss_catalan(1, n):
            return _record(False, abs(count - nc.fuss_catalan(1, n)), 0, f"NC({n}) = {count}")
    return _record(True, 0.0, 0, "NC(n) counts are Catalan for n <= 10")


@_register("nc-pairing-counts", "combinatorial")
def _check_pairing_counts():
    for n in range(2, 15, 2):
        count = sum(1 for _ in nc.enumerate_nc_pairings(n))
        if count != nc.fuss_catalan(1, n // 2):
            return _record(False, 1, 0, f"NC2({n}) = {count}")
    return _record(True, 0.0, 0, "pairing counts are Catalan for n <= 14")


@_register("nc-unique-connecting-pairing", "combinatorial")
def _check_unique_pairing():
    for n in range(1, 7):
        iv = nc.IntervalPartition.of((2,) * n)
        found = [p for p in nc.enumerate_nc_pairings(2 * n) if nc.join_connects(p, iv)]
        expected = nc.SetPartition.of(
            2 * n, [[1, 2 * n]] + [[2 * i, 2 * i + 1] for i in range(1, n)]
        )
        if found != [expected]:
            return _record(False, len(found), 0, f"n={n}: {len(found)} connecting pairings")
    return _record(True, 0.0, 0, "exactly one interval-connecting pairing, n <= 6")


@_register("nc-two-ones-lemma", "combinatorial")
def _check_two_ones():
    for n in range(2, 7):
        for bits in itertools.product((1, 2), repeat=n):
            if all(b == 1 for b in bits) or all(b == 2 for b in bits):
                continue
            sizes = tuple(1 if b == 1 else 2 for b in bits)
            total = sum(sizes)
            if total % 2:
                continue
            iv = nc.IntervalPartition.of(sizes)
            connects = any(
                nc.join_connects(p, iv) for p in nc.enumerate_nc_pairings(total)
            )
            ones = bits.count(1)
            if connects and ones != 2:
                return _record(False, ones, 0, f"string {bits} connects with {ones} ones")
    return _record(True, 0.0, 0, "pairing-connected mixed strings have exactly two 1s, n <= 6")


@_register("nc-alternating-subset", "combinatorial")
def _check_alternating_subset():
    pats = [(1, 1), (2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (3, 1, 1, 3), (3, 2, 2, 3), (2, 3, 3, 2),
            (1, 1, 1, 1, 1, 1)]
    for runs in pats:
        pat = nc.AlternationPattern.of(runs)
        letters = pat.letters()
        # brute-force filter: the NC partitions whose blocks are even and alternate a / a*
        oracle = {
            p.blocks
            for p in nc.enumerate_nc(pat.word_length)
            if all(
                len(b) % 2 == 0 and all(letters[x - 1] != letters[y - 1] for x, y in zip(b, b[1:]))
                for b in p.blocks
            )
        }
        members = list(nc.enumerate_alternating(pat))
        if {p.blocks for p in members} != oracle or len(members) != len(oracle):
            return _record(False, 1, 0, f"{runs}: enumeration differs from the NC filter")
        if not all(nc.is_noncrossing(p) for p in members):
            return _record(False, 1, 0, f"{runs}: crossing member")
    return _record(True, 0.0, 0, "alternating partitions equal the filtered NC partitions, "
                                 "word length <= 10")


@_register("cumulant-moment-roundtrip", "combinatorial")
def _check_roundtrip():
    rng = random.Random(7)
    for _ in range(10):
        kappas = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
        moments = cu.free_moments_from_cumulants(kappas)
        back = cu.cumulants_from_moments(moments)
        if back != kappas:
            return _record(False, 1, 0, f"round trip failed for {kappas}")
    return _record(True, 0.0, 0, "moment <-> cumulant round trip exact to order 8")


@_register("circular-shift-cumulants", "combinatorial")
def _check_shift_cumulants():
    lam = Poly.var("lam")
    ks = cu.circular_shift_cumulants(7)
    for n in range(3, 8):
        if ks[n - 1] != 1 + n * lam * lam:
            return _record(False, 1, 0, f"kappa_{n} = {ks[n-1]!r}")
    if ks[0] != 1 + lam * lam or ks[1] != 1 + 2 * lam * lam:
        return _record(False, 1, 0, "low-order cumulants wrong")
    return _record(True, 0.0, 0, "kappa_n(|lam-c|^2) = 1 + n lam^2 exactly, n <= 7")


@_register("adjacent-ones-vanish", "combinatorial")
def _check_adjacent_ones():
    def has_sub(bits, sub):
        return any(bits[i : i + len(sub)] == sub for i in range(len(bits) - len(sub) + 1))

    for n in range(4, 7):
        for bits in itertools.product((1, 2), repeat=n):
            if not (has_sub(bits, (1, 2, 1, 2)) or has_sub(bits, (2, 1, 2, 1))):
                continue
            # strings with the listed substrings must contribute zero
            val = cu.shift_string_cumulant(bits)
            if not val.is_zero():
                return _record(False, 1, 0, f"string {bits} contributes {val!r}")
    return _record(True, 0.0, 0, "strings containing 1212 or 2121 contribute 0, n <= 6")


@_register("rdiag-general-route-agreement", "combinatorial")
def _check_rdiag_agreement():
    # all alpha_l = 1 is the free Poisson cumulant pattern; the specialized
    # alternating enumeration must match the generic NC(2n) sum
    alphas = [Fraction(1)] * 5
    model = cu.OperatorModel(name="all-ones", alpha=tuple(alphas))
    table = {}
    for ell in range(1, 6):
        word_a = tuple(["a", "a*"] * ell)
        word_s = tuple(["a*", "a"] * ell)
        table[word_a] = Fraction(1)
        table[word_s] = Fraction(1)
    cf = cu.CumulantFunctional(table, max_order=10)
    for n in range(1, 6):
        general = cu.moment_from_cumulants(cf, ["a", "a*"] * n)
        special = cu.rdiag_moment(model, nc.AlternationPattern.of((1, 1) * n))
        if general != special:
            return _record(False, 1, 0, f"n={n}: {general} != {special}")
    return _record(True, 0.0, 0, "alternating enumeration matches generic NC sum, n <= 5")


def _dyadic_atoms(rng):
    """Atoms 1 -/+ d in equal-weight pairs, d a multiple of 1/16: an a a* law of mean 1."""
    pairs = rng.randrange(1, 4)
    atoms = []
    for _ in range(pairs):
        d = Fraction(rng.randrange(1, 16), 16)
        atoms += [(1 - d, Fraction(1, 2 * pairs)), (1 + d, Fraction(1, 2 * pairs))]
    return atoms


@_register("aa-star-transform-vs-enumeration", "combinatorial")
def _check_aa_star_transform():
    rng = random.Random(13)
    cases = [
        (models.haar_model(6), [1] * 6),
        (models.two_atom_model(7), [2 ** (n - 1) for n in range(1, 8)]),
    ]
    for i, order in enumerate((4, 5, 6)):
        atoms = _dyadic_atoms(rng)
        moments = [sum(w * x**n for x, w in atoms) for n in range(1, order + 1)]
        alpha = tuple(cu.alpha_from_aa_star_moments(moments))
        cases.append((cu.OperatorModel(name=f"dyadic-{i}", alpha=alpha), moments))
    for model, moments in cases:
        enumerated = [
            cu.rdiag_moment(model, nc.AlternationPattern.of((1, 1) * n))
            for n in range(1, model.order + 1)
        ]
        if model.aa_star_moments() != enumerated:
            return _record(False, 1, 0, f"{model.name}: transforms differ from the enumeration")
        if enumerated != moments:
            return _record(False, 1, 0, f"{model.name}: alpha does not reproduce the a a* moments")
        # kappa_2n(mu) = alpha_n: the even free cumulants of the symmetrized modulus,
        # whose moments are (0, m_1, 0, m_2, ...)
        interleaved = [m for moment in moments for m in (Fraction(0), moment)]
        if cu.cumulants_from_moments(interleaved)[1::2] != list(model.alpha):
            return _record(False, 1, 0, f"{model.name}: kappa_2n(mu) differs from alpha_n")
    return _record(True, 0.0, 0, "two moment maps equal the alternating-NC sums and "
                                 "kappa_2n(mu) = alpha_n: haar at order 6, two-atom at 7, "
                                 "three dyadic measures at 4-6")


@_register("cumulant-multilinearity", "combinatorial")
def _check_multilinearity():
    cf = cu.CumulantFunctional.circular(max_order=4)
    lam = Poly.var("lam")
    combo = cu.LinComb.of({"c": 1 + lam, "c*": Fraction(2)})
    for n in range(2, 5):
        direct = cf.block_cumulant([combo] * n)
        expanded = Poly()
        for choice in itertools.product(["c", "c*"], repeat=n):
            coeff = Poly.const(1)
            for letter in choice:
                coeff = coeff * (1 + lam if letter == "c" else Poly.const(2))
            expanded = expanded + coeff * Poly.coerce(cf.block_cumulant(list(choice)))
        if Poly.coerce(direct) != expanded:
            return _record(False, 1, 0, f"n={n} multilinearity broken")
    return _record(True, 0.0, 0, "kappa_n multilinear over formal sums, n <= 4")


@_register("psd-binomial-identity", "combinatorial")
def _check_psd_binomial():
    for k in range(0, 4):
        for t in range(0, k + 1):
            got = psd.profile_count(k, (3 * k + 1, t))
            want = math.comb(k, t) * nc.fuss_catalan(2, k)
            if got != want:
                return _record(False, abs(got - want), 0, f"Pi(3k+1,{t}) at k={k}: {got} != {want}")
        table = psd.profile_table(k)
        if any(count for profile, count in table.items() if len(profile) > 1 and sum(profile[1:]) > k):
            return _record(False, 1, 0, f"diagram with more than {k} 4-gons at k={k}")
        if max(profile[0] for profile in table) != 3 * k + 1:
            return _record(False, 1, 0, f"chord count of a diagram exceeds 3k+1 at k={k}")
    return _record(True, 0.0, 0, "Pi_{k+1}(3k+1,t) = binom(k,t) C2_k, Pi = 0 for t > k and "
                                 "at most 3k+1 2-gons, k <= 3")


@_register("psd-quadrangulation-counts", "combinatorial")
def _check_quadrangulations():
    expected = [1, 1, 3, 12, 55, 273]
    for k in range(0, 6):
        got = psd.count_quadrangulations(k)  # segment count asserted inside
        if got != expected[k] or got != nc.fuss_catalan(2, k):
            return _record(False, abs(got - expected[k]), 0, f"k={k}: {got}")
    return _record(True, 0.0, 0, f"4-gon tiling counts {expected} are C2_k with 3k+1 segments, k <= 5")


@_register("psd-big-polygon-bound", "combinatorial")
def _check_big_polygon_bound():
    for k in range(2, 4):
        for diagram in psd.enumerate_psd(k):
            profile = diagram.profile()
            for ell in range(3, k + 2):
                if profile[ell - 1] > 0 and profile[0] > 3 * k + 1 - (ell - 2):
                    return _record(
                        False, profile[0], 0, f"k={k}: {profile[0]} 2-gons beside a {2*ell}-gon"
                    )
    return _record(True, 0.0, 0, "a 2l-gon (l >= 3) forfeits l-2 of the 3k+1 chords, k <= 3")


@_register("psd-compression-bijection", "combinatorial")
def _check_bijection():
    count = 0
    seen = set()
    for k in range(0, 3):
        for pat in _patterns(k, 4):
            for part in nc.enumerate_alternating(pat):
                lp = psd.compress(pat, part)
                pat2, part2 = psd.decompress(lp)
                if pat2 != pat or part2 != part:
                    return _record(False, 1, 0, f"round trip failed at {pat.runs}")
                prof = [0] * (k + 1)
                for b in part.blocks:
                    prof[len(b) // 2 - 1] += 1
                if tuple(prof) != lp.profile() or lp.epsilon() != pat.word_length:
                    return _record(False, 1, 0, f"profile not preserved at {pat.runs}")
                key = (k, lp.diagram.polygons, lp.labels)
                if key in seen:
                    return _record(False, 1, 0, f"not injective at {pat.runs}")
                seen.add(key)
                count += 1
    surjective = 0
    for k in range(0, 3):
        for diagram in psd.enumerate_psd(k):
            for labels in _labelings_within(diagram, 8):
                surjective += 1
                if (k, diagram.polygons, labels) not in seen:
                    return _record(False, 1, 0, f"unreached diagram {diagram.polygons} {labels}")
    if surjective != count:
        return _record(False, abs(surjective - count), 0, "cardinalities differ")
    return _record(True, 0.0, 0, f"bijection over {count} partitions = {surjective} labeled diagrams")


@_register("psd-polynomial-vs-lagrange", "combinatorial")
def _check_psd_vs_lagrange():
    for model in (models.circular_model(), models.two_atom_model()):
        for k in range(0, 4):
            sym = se.negative_moments_lagrange(model, k)
            for i in range(50):
                lam = Fraction(21 + i, 20)  # 50 rational points in (1, 4]
                a = psd.negative_moment_psd(model, lam, k)
                b = sym[k].evaluate(se.symbolic_model_assignment(model, lam))
                if a != b:
                    return _record(False, 1, 0, f"{model.name} k={k} lam={lam}: {a} != {b}")
    return _record(True, 0.0, 0, "diagram route equals inversion route exactly, k <= 3, 50 points")


def _cleared_diagram_polynomial(poly):
    """L^dy (L-1)^dx P(1/(L-1), 1/L) with L = lam^2: a diagram polynomial
    over the common denominator L^dy (L-1)^dx, returned with dx and dy."""
    dx, dy = poly.degree("x"), poly.degree("y")
    total = Poly()
    for mono, coeff in poly.terms.items():
        exps = dict(mono)
        rest = Poly({tuple((n, e) for n, e in mono if n not in ("x", "y")): coeff})
        denominator_share = se.LAM_SQ ** (dy - exps.get("y", 0)) * (se.LAM_SQ - 1) ** (dx - exps.get("x", 0))
        total = total + rest * denominator_share
    return total, dx, dy


@_register("negative-moment-closed-forms", "combinatorial")
def _check_closed_forms():
    L, v, a2 = se.LAM_SQ, Poly.var("v"), Poly.var("a2")
    # m_{-2j-2} = numerators[j] / (L - 1)^{3j+1}, v = alpha_2 + 1
    numerators = [Poly.const(1), L * L - 1 + v]
    v2 = cu.OperatorModel(name="v2", alpha=(Fraction(1), Fraction(1)))
    model_list = (models.circular_model(), models.two_atom_model(), models.haar_model(), v2)
    for model in model_list:
        sym = se.negative_moments_lagrange(model, 1)
        for j, num in enumerate(numerators):
            if sym[j] != RationalExpr(num, (L - 1) ** (3 * j + 1)):
                return _record(False, 1, 0, f"{model.name}: inversion route m_{-2 * j - 2} = {sym[j]!r}")
    for j, num in enumerate(numerators):
        cleared, dx, dy = _cleared_diagram_polynomial(psd.moment_polynomial(j))
        if dx < 3 * j + 1 or cleared != (
            Poly.coerce(num.subs({"v": 1 + a2})) * L**dy * (L - 1) ** (dx - 3 * j - 1)
        ):
            return _record(False, 1, 0, f"diagram route m_{-2 * j - 2} differs from the closed form")
    for model in model_list:
        for i in range(80):
            lam = Fraction(21 + i, 20)  # 80 rational points in (1, 5]
            lam2 = lam * lam
            want = [1 / (lam2 - 1), (lam2 * lam2 - 1 + model.v) / (lam2 - 1) ** 4]
            if [psd.negative_moment_psd(model, lam, j) for j in (0, 1)] != want:
                return _record(False, 1, 0, f"{model.name} lam={lam}: diagram route off the closed forms")
    return _record(True, 0.0, 0, "closed forms m_-2 = 1/(lam^2-1) and m_-4 = (lam^4-1+v)/(lam^2-1)^4 "
                                 "exact on both routes: symbolic, and at 80 points in (1, 5] on "
                                 "circular, two-atom, haar and a v = 2 model")


def _inverse_by_lagrange(model, k, lam=None):
    """g_1, g_3, ..., g_{2k+1}: Lagrange inversion of the rescaled inverse-Cauchy series."""
    if lam is None:
        kappas, lam_sq = se._mu_cumulants_symbols(model, k + 1), se.LAM_SQ
    else:
        kappas, lam_sq = se._mu_cumulants_exact(model, k + 1), Fraction(lam) ** 2
    return se.lagrange_invert(se.rescaled_inverse_cauchy(kappas, lam_sq, 2 * k + 1)).coeffs[1::2]


@_register("inverse-equation-vs-lagrange", "combinatorial")
def _check_inverse_equation():
    circ, two = models.circular_model(), models.two_atom_model()
    for model in (circ, two, models.haar_model()):
        for k in range(0, 4):
            sym = se.negative_moments_lagrange(model, k)
            if [Poly.coerce(b) for b in _inverse_by_lagrange(model, k)] != [e.num for e in sym]:
                return _record(False, 1, 0, f"{model.name} k={k}: symbolic routes differ")
    for model, k_max in ((circ, 12), (two, 7)):
        for lam in (Fraction(21, 20), Fraction(7, 5), Fraction(3)):
            m = lam * lam - 1
            for k in range(0, k_max + 1):
                oracle = [b / m ** (3 * j + 1) for j, b in enumerate(_inverse_by_lagrange(model, k, lam))]
                if se.negative_moments_lagrange(model, k, lam=lam) != oracle:
                    return _record(False, 1, 0, f"{model.name} k={k} lam={lam}: routes differ")
    return _record(True, 0.0, 0, "inverse-series equation equals Lagrange inversion exactly: "
                                 "symbolic k <= 3 on circular, two-atom, haar; circular k <= 12 "
                                 "and two-atom k <= 7 at lam = 21/20, 7/5, 3")


def _patterns(k, max_half):
    pairs = k + 1
    for total in range(0, max_half + 1):
        for ns in itertools.product(range(total + 1), repeat=pairs):
            if sum(ns) != total:
                continue
            for ms in itertools.product(range(total + 1), repeat=pairs):
                if sum(ms) != total:
                    continue
                runs = []
                for a, b in zip(ns, ms):
                    runs.extend([a, b])
                yield nc.AlternationPattern.of(runs)


def _labelings_within(diagram, budget):
    polys = diagram.polygons
    if sum(len(p) for p in polys) > budget:
        return

    def rec(i, used, acc):
        if i == len(polys):
            yield tuple(acc)
            return
        rest_min = sum(len(q) for q in polys[i + 1 :])
        if len(polys[i]) > 2:
            yield from rec(i + 1, used + len(polys[i]), acc + [1])
        else:
            lab = 1
            while used + 2 * lab + rest_min <= budget:
                yield from rec(i + 1, used + 2 * lab, acc + [lab])
                lab += 1

    yield from rec(0, 0, [])


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


@_register("k-transform-forms", "analytic")
def _check_k_forms():
    worst = 0.0
    samples = ((random.Random(11).uniform, 2, 1e-3, (0.1, 9.0)),
               (np.random.default_rng(42).uniform, 3, 1e-2, (0.05, 8.0)))
    for uniform, span, gap, m_range in samples:
        for _ in range(20):
            z = complex(uniform(-span, span), uniform(-span, span))
            if abs(z) < gap or abs(z - 1) < gap:
                continue
            m = uniform(*m_range)
            a = ci.k_transform(z, m)
            b = ci.k_transform_summed(z, m)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return _record(worst < 1e-14, worst, 1e-14, "factored vs summed K-transform at two random samples")


@_register("support-endpoints-critical-search", "analytic")
def _check_support_search():
    worst = 0.0
    for lam in (1.01, 1.1, 1.5, 2.0, 3.0):
        m = lam * lam - 1.0
        zm, zp = ci.critical_points(lam)
        # independent search: bisect the numerator of K' (positive between
        # its roots, negative outside)
        num = lambda z: 1.0 - 3.0 * z - 2.0 * m * z * z
        mid = 0.5 * (zm + zp)
        z_minus = rv._bisect(num, zm - 1.0, mid)
        z_plus = rv._bisect(num, mid, zp + (zp - zm))
        sm, sp = ci.support_endpoints(lam)
        for z_found, s_ref in ((z_minus, sm), (z_plus, sp), (zm, sm), (zp, sp)):
            diff = abs(ci.k_transform(z_found, m) - s_ref) / max(1.0, abs(s_ref))
            worst = max(worst, diff)
    return _record(worst < 1e-12, worst, 1e-12, f"K at the searched and the closed-form critical "
                                                f"points matches the endpoints: residual {worst:.2e} "
                                                f"(tol 1e-12), lam in {{1.01, 1.1, 1.5, 2, 3}}")


@_register("inf-spec-consistency", "analytic")
def _check_inf_spec():
    worst = 0.0
    for lam in (1.01, 1.1, 1.3, 1.5, 2.0, 3.0, 10.0):
        a = ci.inf_spec(lam)
        b = ci.support_endpoints(lam)[0]
        worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    return _record(worst < 1e-12, worst, 1e-12, "inf_spec equals s- across lam")


@_register("cauchy-functional-inverse", "analytic")
def _check_cauchy_inverse():
    worst = 0.0
    for uniform in (random.Random(3).uniform, np.random.default_rng(1).uniform):
        for lam in (1.5, 2.0):
            spec = ci.CircularSpectrum.at(lam)
            n = 0
            while n < 25:
                w = complex(uniform(-15, 25), uniform(-8, 8))
                if abs(w.imag) < 1e-2 and spec.s_minus - 1 < w.real < spec.s_plus + 1:
                    continue
                g = ci.cauchy_transform(w, lam)
                worst = max(worst, abs(ci.k_transform(g, spec.m) - w))
                n += 1
    return _record(worst < 1e-10, worst, 1e-10, "K(G(w)) = w at 100 off-support points")


@_register("cauchy-herglotz", "analytic")
def _check_herglotz():
    worst = -1.0
    samples = ((random.Random(5).uniform, (1.2, 2.0, 5.0), (-10, 40), (1e-6, 10)),
               (np.random.default_rng(2).uniform, (1.2, 3.0), (-5, 30), (1e-5, 8)))
    for uniform, lams, re_range, im_range in samples:
        for lam in lams:
            for _ in range(25):
                w = complex(uniform(*re_range), uniform(*im_range))
                worst = max(worst, ci.cauchy_transform(w, lam).imag)
    return _record(worst <= 1e-12, max(worst, 0.0), 1e-12, "G maps C+ into the closed lower half-plane")


@_register("density-properties", "analytic")
def _check_density():
    worst_mass = 0.0
    worst_mean = 0.0
    for lam in (1.1, 1.5, 2.0, 3.0, 10.0):
        meas = ci.density(lam, 512)
        spec = ci.CircularSpectrum.at(lam)
        worst_mass = max(worst_mass, abs(meas.total_mass() - 1.0))
        # absolute error: at least the relative one, since the mean lam^2 + 1 exceeds 1
        worst_mean = max(worst_mean, abs(meas.moment(1) - (lam * lam + 1)))
        mid_idx = len(meas.grid) // 2
        if meas.density[mid_idx] <= 0 or (meas.density < 0).any():
            return _record(False, 0.0, 1e-6, f"density negative, or not positive at midpoint, for lam={lam}")
        peak = meas.density.max()
        if meas.density[0] > 0.25 * peak or meas.density[-1] > 0.25 * peak:
            return _record(False, float(max(meas.density[0], meas.density[-1]) / peak),
                           0.25, f"density does not drop toward the edges at lam={lam}")
        # square-root vanishing: rho(d) ~ c sqrt(d), tested where the grid
        # resolves the edge scale (left-edge scale is s- itself near lam = 1)
        d_left = meas.grid - spec.s_minus
        d_right = spec.s_plus - meas.grid
        checks = [(d_right[-9], d_right[-3], meas.density[-9], meas.density[-3])]
        if d_left[8] < 0.05 * spec.s_minus:
            checks.append((d_left[8], d_left[2], meas.density[8], meas.density[2]))
        for d_far, d_near, rho_far, rho_near in checks:
            expected = math.sqrt(d_far / d_near)
            got = rho_far / rho_near
            if abs(got / expected - 1.0) > 0.15:
                return _record(False, abs(got / expected - 1.0), 0.15,
                               f"edge behaviour not square-root at lam={lam}")
        if meas.grid[0] <= spec.s_minus or meas.grid[-1] >= spec.s_plus:
            return _record(False, 0.0, 0.0, "grid leaves the open support interval")
    worst = max(worst_mass, worst_mean)
    return _record(worst < 1e-6, worst, 1e-6, "mass, mean (absolute), positivity, support for 5 lam values")


@_register("density-fourth-moment", "analytic")
def _check_density_fourth():
    worst = 0.0
    for lam in (1.5, 2.0):
        meas = ci.density(lam, 1024)
        expected = float(ci.shift_square_modulus_moment(2, Fraction(lam).limit_denominator(100)))
        got = meas.moment(2)
        worst = max(worst, abs(got - expected) / expected)
    return _record(worst < 1e-5, worst, 1e-5, "second moment of the density vs combinatorial value")


@_register("r-transform-identity", "analytic")
def _check_r_identity():
    # both derivations give the cumulants of |lam - c|^2: kappa_n = 1 + n lam^2,
    # the coefficients of the closed form 1/(1-z) + lam^2/(1-z)^2
    lam = Poly.var("lam")
    analytic = ci.shift_r_transform_coefficients(8)
    combinatorial = cu.circular_shift_cumulants(8)
    for n, (a, b) in enumerate(zip(analytic, combinatorial), start=1):
        if a != 1 + n * lam * lam or b != a:
            return _record(False, 1.0, 0, f"kappa_{n}: analytic {a!r}, combinatorial {b!r}")
    # lam = 0 degenerates to the free Poisson: all cumulants 1
    if any(k.subs({"lam": 0}) != 1 for k in analytic):
        return _record(False, 1.0, 0, "lam = 0 cumulants are not the free Poisson ones")
    return _record(True, 0.0, 0, "R-transform identity, combinatorial and analytic routes, order 8, exact")


@_register("subordination-residuals", "analytic")
def _check_subordination():
    circ = models.circular_model()
    worst_res = 0.0
    worst_match = 0.0
    # G of the squared modulus at -t^2 carries h_lam through w -> w^2
    points = [(1.7, 0.25 + 0.15 * i) for i in range(20)]
    points += [(lam, t) for lam in (1.4, 2.2) for t in (0.3, 0.8, 1.5, 2.5, 4.0)]
    for lam, t in points:
        s_root = rv.solve_subordination(circ, lam, t)
        if not s_root > t:
            return _record(False, t - s_root, 0.0, f"root s = {s_root} not above t = {t}")
        worst_res = max(worst_res, abs(rv.h_equation_residual(circ, lam, t, s_root)))
        h_l = rv.h_function(circ.aa_star_measure, s_root)
        cardano = -t * ci.cauchy_transform(complex(-t * t, 0.0), lam).real
        worst_match = max(worst_match, abs(h_l - cardano))
    passed = worst_res < 1e-10 and worst_match < 1e-6
    return _record(passed, max(worst_res, worst_match), 1e-6,
                   f"residual {worst_res:.2e} (tol 1e-10), match {worst_match:.2e} (tol 1e-6) at "
                   f"{len(points)} points")


@_register("subordination-negative-root", "analytic")
def _check_negative_root():
    circ = models.circular_model()
    worst = 0.0
    lam = 1.4
    for s in (6.0, 9.0, 14.0, 25.0):
        h = rv.h_function(circ.aa_star_measure, s)
        disc = 1.0 - 4.0 * lam * lam * h * h
        if disc < 0:
            return _record(False, disc, 0.0, f"negative discriminant at s={s}")
        t = s - (1.0 + math.sqrt(disc)) / (2.0 * h)
        if t <= 0:
            return _record(False, t, 0.0, f"negative-root t not positive at s={s}")
        worst = max(worst, abs(rv.h_lambda(circ, lam, t) - h))
    return _record(worst < 1e-8, worst, 1e-8, "negative-root relation h_lam(t(s)) = h(s)")


@_register("h-large-s-expansion", "analytic")
def _check_h_large_s():
    circ = models.circular_model()
    s = 1e3
    h = rv.h_function(circ.aa_star_measure, s)
    law = 1.0 / s - 1.0 / s**3  # next correction is ||a||_4^4 / s^5
    rel = abs(h - law) / h
    return _record(rel < 1e-6, rel, 1e-6, "h(s) = 1/s - ||a||_2^2/s^3 + O(s^-5) at s = 1e3")


@_register("h-small-t-limit", "analytic")
def _check_h_small_t():
    circ = models.circular_model()
    lam = 2.0
    t = 1e-3
    got = rv.h_lambda(circ, lam, t) / t
    target = 1.0 / (lam * lam - 1.0)
    rel = abs(got - target) / target
    return _record(rel < 1e-4, rel, 1e-4, "h_lam(t)/t -> m_{-2} as t -> 0")


@_register("pushforward-inverse-sqrt", "analytic")
def _check_pushforward():
    import freeprob.measures as me

    pushed = ci.pushforward_inverse_sqrt(me.SpectralMeasure.from_atoms([(4.0, 1.0)]))
    if pushed.atoms != ((0.5, 1.0),):
        return _record(False, 1.0, 0, f"atom (4, 1) maps to {pushed.atoms}")
    lam = 2.0
    pushed = ci.pushforward_inverse_sqrt(ci.density(lam, 512))
    mass_err = abs(pushed.total_mass() - 1.0)
    if mass_err >= 1e-6:
        return _record(False, mass_err, 1e-6, "mass not conserved")
    # the pushed support runs from s+^{-1/2} up to inf_spec^{-1/2}, the resolvent norm
    sup_err = abs(pushed.support_max() / ci.inf_spec(lam) ** -0.5 - 1.0)
    inf_err = abs(pushed.support_min() / ci.support_endpoints(lam)[1] ** -0.5 - 1.0)
    worst = max(sup_err, inf_err)
    return _record(worst < 1e-3, worst, 1e-3,
                   f"mass conserved to {mass_err:.1e}; support ends within {worst:.1e} relative "
                   f"of s+^(-1/2) and the resolvent norm")


@_register("norm-vs-inf-spec", "analytic")
def _check_norm_vs_infspec():
    circ = models.circular_model()
    worst = 0.0
    for lam in [1.01 + i * (3.0 - 1.01) / 19 for i in range(20)] + [1.1, 1.5, 2.0]:
        res = rv.resolvent_norm(circ, lam)
        ref = ci.inf_spec(lam) ** -0.5
        worst = max(worst, abs(res.norm - ref) / ref)
        if abs(res.norm * res.m_lambda - 1.0) > 1e-12:
            return _record(False, abs(res.norm * res.m_lambda - 1.0), 1e-12, "norm * m_lambda != 1")
    return _record(worst < 1e-9, worst, 1e-9, f"series norm equals inf_spec^(-1/2): residual {worst:.2e} "
                                              f"(tol 1e-9), 20 points in [1.01, 3] and lam = 1.1, 1.5, 2")


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------


@_register("taylor-leading-term", "asymptotic")
def _check_taylor():
    lam = 1.0 + 1e-3
    got = ci.inf_spec(lam)
    lead = (32.0 / 27.0) * (lam - 1.0) ** 3
    rel = abs(got - lead) / lead
    return _record(rel < 5e-3, rel, 5e-3, "inf spec ~ (32/27)(lam-1)^3 near lam = 1")


@_register("main-theorem-ratio", "asymptotic")
def _check_main_theorem():
    worst = 0.0
    lines = []
    for model in (models.circular_model(), models.two_atom_model()):
        errs = [abs(rv.resolvent_norm(model, lam).ratio - 1.0) for lam in (1.1, 1.01, 1.001)]
        if not errs[0] > errs[1] > errs[2]:
            return _record(False, max(errs), 1e-2, f"{model.name}: ratio errors {errs} not decreasing")
        if errs[1] >= 0.10 or errs[2] >= 1e-2:
            return _record(False, errs[2], 1e-2, f"{model.name}: ratio errors {errs} outside 10% / 1%")
        worst = max(worst, errs[2])
        lines.append(f"{model.name} {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}")
    return _record(True, worst, 1e-2, "norm / asymptotic errors at lam = 1.1, 1.01, 1.001 decrease "
                                      "strictly, within 10% at 1.01 and 1% at 1.001: " + ", ".join(lines))


@_register("negative-moment-asymptotics", "asymptotic")
def _check_neg_moment_asym():
    # quantitative convergence to the Fuss-Catalan constants; at lam = 1.001
    # the exact deviations are below 1% for k <= 3 on both stock models
    lam = Fraction(1001, 1000)
    worst = 0.0
    for model in (models.circular_model(), models.two_atom_model()):
        ms = se.negative_moments_lagrange(model, 3, lam=lam)
        v = model.v
        for k in range(0, 4):
            normalized = ms[k] * (lam * lam - 1) ** (3 * k + 1) / v**k
            rel = abs(float(normalized) - nc.fuss_catalan(2, k)) / nc.fuss_catalan(2, k)
            worst = max(worst, rel)
    return _record(worst < 1e-2, worst, 1e-2, "m_{-2k-2} (lam^2-1)^{3k+1} / v^k vs C2_k at lam = 1.001")


@_register("inverse-coefficient-convergence", "asymptotic")
def _check_b_convergence():
    lam = Fraction(1001, 1000)
    circ = models.circular_model()
    ms = se.negative_moments_lagrange(circ, 3, lam=lam)
    worst = 0.0
    for k in range(0, 4):
        b = float(ms[k] * (lam * lam - 1) ** (3 * k + 1))
        target = nc.fuss_catalan(2, k)  # v = 1
        worst = max(worst, abs(b - target) / target)
    return _record(worst < 1e-2, worst, 1e-2, "rescaled inverse coefficients -> C2_k v^k at lam = 1.001")


@_register("lower-bound-dominance", "asymptotic")
def _check_lower_bound():
    for model in (models.circular_model(), models.two_atom_model()):
        for lam in (Fraction(21, 20), Fraction(6, 5)):
            ms = se.negative_moments_lagrange(model, 6, lam=lam)
            norm = rv.resolvent_norm(model, float(lam)).norm
            for k in range(1, 7):
                bound = rv.lower_bound_from_moments(ms, k)
                if not bound < norm:
                    return _record(False, bound - norm, 0.0, f"{model.name} k={k} lam={lam}")
    return _record(True, 0.0, 0.0, "moment bounds stay strictly below the norm, k <= 6")


@_register("lower-bound-k20", "asymptotic")
def _check_lower_bound_k20():
    circ = models.circular_model()
    lam = Fraction(21, 20)
    ms = se.negative_moments_lagrange(circ, 20, lam=lam)
    norm = ci.inf_spec(float(lam)) ** -0.5
    worst = 0.0
    for k in range(1, 21):
        bound = rv.lower_bound_from_moments(ms, k)
        if bound > norm:
            return _record(False, bound - norm, 0.0, f"k={k} bound exceeds the norm")
        worst = max(worst, bound / norm)
    return _record(True, worst, 1.0, f"all k <= 20 bounds below the exact norm {norm:.4f} at lam = 1.05; "
                                     f"best ratio {worst:.4f}")


@_register("fuss-catalan-root-limit", "asymptotic")
def _check_fc_root():
    target = 1.5 * math.sqrt(3.0)
    ratio_est = rv.fuss_catalan_root_ratio(50)
    rel = abs(ratio_est - target) / target
    roots = [rv.fuss_catalan_root(k) for k in (2, 5, 10, 20, 25, 50)]
    if any(r >= target for r in roots):
        return _record(False, max(roots) - target, 0.0, "plain root exceeds the supremum")
    if any(b <= a for a, b in zip(roots, roots[1:])):
        return _record(False, 0.0, 0.0, "plain root not increasing")
    return _record(rel < 0.02, rel, 0.02,
                   f"ratio estimator {ratio_est:.4f} vs (3/2)sqrt(3) = {target:.4f}")


@_register("triple-route-agreement", "asymptotic")
def _check_triple_route():
    circ = models.circular_model()
    worst_quad = 0.0
    for lam in (Fraction(3, 2), Fraction(2)):
        exact = se.negative_moments_lagrange(circ, 3, lam=lam)
        for k in range(0, 4):
            via_psd = psd.negative_moment_psd(circ, lam, k)
            if via_psd != exact[k]:
                return _record(False, 1.0, 0.0, f"exact routes differ at k={k}, lam={lam}")
        meas = ci.density(float(lam), 2048)
        for k in range(0, 4):
            quad = meas.integrate(lambda t: t ** (-(k + 1.0)))
            rel = abs(quad - float(exact[k])) / float(exact[k])
            worst_quad = max(worst_quad, rel)
    return _record(worst_quad < 1e-5, worst_quad, 1e-5,
                   f"exact routes equal; quadrature residual {worst_quad:.2e} (tol 1e-5)")


@_register("asymptotic-ratio-sweep", "asymptotic")
def _check_asym_sweep():
    circ = models.circular_model()
    worst_final = 0.0
    for k in (1, 2, 3):
        prev = None
        for lam in (Fraction(11, 10), Fraction(101, 100), Fraction(1001, 1000)):
            exact = se.negative_moments_lagrange(circ, k, lam=lam)[k]
            asym = se.asymptotic_negative_moment(Fraction(1), k, lam)
            err = abs(float(exact / asym) - 1.0)
            if prev is not None and err >= prev:
                return _record(False, err, 0.0, f"k={k}: ratio error did not shrink at lam={lam}")
            prev = err
        worst_final = max(worst_final, prev)
    return _record(worst_final < 1e-2, worst_final, 1e-2,
                   "exact/asymptotic -> 1 strictly along lam = 1.1, 1.01, 1.001, k <= 3")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_suite(suite: str = "all") -> dict:
    """Run the named suite ('all' or one of SUITES); returns the JSON report."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    checks = [c for c in _REGISTRY if suite == "all" or c.suite == suite]
    results = []
    for check in checks:
        start = time.perf_counter()
        try:
            record = check.fn()
        except Exception as exc:  # a crashed check is a failed check
            record = _record(False, float("inf"), 0, f"exception: {exc!r}")
        record["seconds"] = time.perf_counter() - start
        record["name"] = check.name
        record["suite"] = check.suite
        results.append(record)
    return {
        "suite": suite,
        "total": len(results),
        "failed": sum(1 for r in results if not r["passed"]),
        "checks": results,
    }
