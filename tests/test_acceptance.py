"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned where each assertion is made; nothing is recalibrated
at runtime.  Two clauses are implemented exactly as specified although exact
arithmetic shows the stated tolerance cannot hold (criterion 5 for k >= 2 and
the k = 50 root clause of criterion 10); they fail honestly, with the
analysis in the project notes.  The true nearby statements are covered by
the regular test modules.
"""

import math
from fractions import Fraction

from freeprob import circular as ci
from freeprob import cumulants as cu
from freeprob import noncrossing as nc
from freeprob import psd
from freeprob import resolvent as rv
from freeprob import series as se
from freeprob.ring import Poly, RationalExpr

L = Poly.var("L")
V = Poly.var("v")
LAM = Poly.var("lam")


def _line(num: str, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_1_circular_r_transform():
    """Both derivation routes give kappa_n = 1 + n lam^2 exactly, n = 1..8."""
    combinatorial = cu.circular_shift_cumulants(8)
    analytic = ci.shift_r_transform_coefficients(8)
    target = [1 + LAM**2] + [1 + n * LAM**2 for n in range(2, 9)]
    ok = combinatorial == target and analytic == target
    assert _line("1", ok, "R-transform identity, combinatorial and analytic routes, order 8, exact")


def test_criterion_2_support_endpoints_and_norm(circular_model):
    """Critical-point search reproduces the endpoint formulas to 1e-12 and the
    series norm matches inf_spec^{-1/2} to 1e-9, lam in {1.01,1.1,1.5,2,3}."""
    worst_s = 0.0
    worst_n = 0.0
    for lam in (1.01, 1.1, 1.5, 2.0, 3.0):
        m = lam * lam - 1.0
        zm, zp = ci.critical_points(lam)
        num = lambda z: 1.0 - 3.0 * z - 2.0 * m * z * z
        mid = 0.5 * (zm + zp)
        z_minus = rv._bisect(num, zm - 1.0, mid)
        z_plus = rv._bisect(num, mid, zp + (zp - zm))
        sm, sp = ci.support_endpoints(lam)
        worst_s = max(worst_s, abs(ci.k_transform(z_minus, m) - sm) / max(1.0, abs(sm)))
        worst_s = max(worst_s, abs(ci.k_transform(z_plus, m) - sp) / max(1.0, abs(sp)))
        res = rv.resolvent_norm(circular_model, lam)
        worst_n = max(worst_n, abs(res.norm - ci.inf_spec(lam) ** -0.5) / res.norm)
    ok = worst_s < 1e-12 and worst_n < 1e-9
    assert _line("2", ok, f"endpoint search residual {worst_s:.2e} (tol 1e-12), "
                          f"norm residual {worst_n:.2e} (tol 1e-9)")


def test_criterion_3_main_theorem(circular_model):
    """Norm / asymptotic within 1% at lam = 1.001, 10% at 1.01, improving."""
    errs = {}
    for lam in (1.1, 1.01, 1.001):
        errs[lam] = abs(rv.resolvent_norm(circular_model, lam).ratio - 1.0)
    ok = (
        errs[1.001] < 0.01
        and errs[1.01] < 0.10
        and errs[1.1] > errs[1.01] > errs[1.001]
    )
    assert _line("3", ok, f"ratio errors {errs[1.1]:.4f} > {errs[1.01]:.4f} > "
                          f"{errs[1.001]:.4f}, last within 1%")


def test_criterion_4_negative_moment_closed_forms(circular_model, two_atom_model):
    """m_-2 = 1/(lam^2-1), m_-4 = (lam^4-1+v)/(lam^2-1)^4, both routes, exact."""
    ok = True
    # inversion route: full symbolic identity including the v symbol
    sym = se.negative_moments_lagrange(circular_model, 1)
    ok &= sym[0] == RationalExpr(Poly.const(1), L - 1)
    ok &= sym[1] == RationalExpr(V - 1 + L**2, (L - 1) ** 4)
    # diagram route: exact rational agreement with the closed forms on models
    # of different v, at more points than the degree bound (x-degree <= 4)
    v2_model = cu.OperatorModel(
        name="v2", alpha=(Fraction(1), Fraction(1)),
        mu_even_cumulants=(Fraction(1), Fraction(1)),
    )
    for model in (circular_model, two_atom_model, v2_model):
        v = model.v
        for i in range(60):
            lam = Fraction(21 + i, 20)
            lam2 = lam * lam
            ok &= psd.negative_moment_psd(model, lam, 0) == 1 / (lam2 - 1)
            ok &= psd.negative_moment_psd(model, lam, 1) == (lam2**2 - 1 + v) / (lam2 - 1) ** 4
    assert _line("4", bool(ok), "closed forms m_-2 and m_-4 exact on both routes")


def test_criterion_5_negative_moment_asymptotics(circular_model, two_atom_model):
    """Literal criterion: m_{-2k-2} (lam^2-1)^{3k+1} / v^k within 5% of C2_k at
    lam = 1.01 for k <= 3, circular and two-atom.

    Exact arithmetic gives deviations of 6.2%..9.7% for k >= 2 (see the
    project notes): the tolerance is unattainable as stated.  The assertion
    is kept literal and fails honestly; the k <= 1 part and the lam = 1.001
    calibration hold and are tested in the regular modules.
    """
    lam = Fraction(101, 100)
    worst = 0.0
    detail = []
    for model in (circular_model, two_atom_model):
        ms = se.negative_moments_lagrange(model, 3, lam=lam)
        for k in range(0, 4):
            normalized = ms[k] * (lam * lam - 1) ** (3 * k + 1) / model.v**k
            rel = abs(float(normalized) - nc.fuss_catalan(2, k)) / nc.fuss_catalan(2, k)
            worst = max(worst, rel)
            detail.append(f"{model.name} k={k}: {rel * 100:.2f}%")
    ok = worst < 0.05
    _line("5", ok, "normalized negative moments vs C2_k at lam = 1.01: " + ", ".join(detail))
    assert ok, (
        "criterion 5 is unattainable as stated: exact deviations at lam = 1.01 are "
        + ", ".join(detail)
        + " (> 5% for k >= 2 on both models; see notes/decisions.md)"
    )


def test_criterion_6_triple_route(circular_model):
    """Inversion and diagram routes agree exactly; density quadrature within
    1e-5 relative, k <= 3, lam in {1.5, 2}."""
    ok = True
    worst_quad = 0.0
    for lam in (Fraction(3, 2), Fraction(2)):
        exact = se.negative_moments_lagrange(circular_model, 3, lam=lam)
        for k in range(0, 4):
            ok &= psd.negative_moment_psd(circular_model, lam, k) == exact[k]
        meas = ci.density(float(lam), 2048)
        for k in range(0, 4):
            quad = meas.integrate(lambda t: t ** (-(k + 1.0)))
            worst_quad = max(worst_quad, abs(quad - float(exact[k])) / float(exact[k]))
    ok = bool(ok) and worst_quad < 1e-5
    assert _line("6", ok, f"exact routes equal; quadrature residual {worst_quad:.2e} (tol 1e-5)")


def test_criterion_7_psd_combinatorics():
    """Profile counts, quadrangulation counts and segment counts, exact."""
    ok = True
    for k in range(0, 4):
        for t in range(0, k + 1):
            ok &= psd.profile_count(k, (3 * k + 1, t)) == math.comb(k, t) * nc.fuss_catalan(2, k)
        # t > k is impossible
        ok &= psd.profile_count(k, (0, k + 1)) == 0
        ok &= psd.profile_count(k, (1, k + 2)) == 0
    quad_counts = [psd.count_quadrangulations(k) for k in range(0, 5)]  # segments asserted inside
    ok &= quad_counts == [1, 1, 3, 12, 55]
    assert _line("7", bool(ok), f"Pi identities (k <= 3) and tiling counts {quad_counts}")


def test_criterion_8_compression_bijection():
    """Round trip, injectivity, surjectivity, profile preservation, exact."""
    import itertools

    def patterns(k, max_half):
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

    def labelings_within(diagram, budget):
        polys = diagram.polygons
        if sum(len(p) for p in polys) > budget:
            return

        def rec(i, used, acc):
            if i == len(polys):
                yield tuple(acc)
                return
            rest = sum(len(q) for q in polys[i + 1:])
            if len(polys[i]) > 2:
                yield from rec(i + 1, used + len(polys[i]), acc + [1])
            else:
                lab = 1
                while used + 2 * lab + rest <= budget:
                    yield from rec(i + 1, used + 2 * lab, acc + [lab])
                    lab += 1

        yield from rec(0, 0, [])

    ok = True
    count = 0
    seen = set()
    for k in range(0, 3):
        for pat in patterns(k, 4):
            for part in nc.enumerate_alternating(pat):
                lp = psd.compress(pat, part)
                pat2, part2 = psd.decompress(lp)
                ok &= (pat2, part2) == (pat, part)
                profile = [0] * (k + 1)
                for b in part.blocks:
                    profile[len(b) // 2 - 1] += 1
                ok &= tuple(profile) == lp.profile() and lp.epsilon() == pat.word_length
                key = (k, lp.diagram.polygons, lp.labels)
                ok &= key not in seen
                seen.add(key)
                count += 1
    total = 0
    for k in range(0, 3):
        for diagram in psd.enumerate_psd(k):
            for labels in labelings_within(diagram, 8):
                total += 1
                ok &= (k, diagram.polygons, labels) in seen
    ok = bool(ok) and total == count
    assert _line("8", ok, f"bijection over {count} partitions = {total} labeled diagrams")


def test_criterion_9_subordination(circular_model):
    """h_lam from root finding matches the Cardano route through w -> w^2
    within 1e-6 at 20 points; every defining residual below 1e-10."""
    lam = 1.7
    worst_res = 0.0
    worst_match = 0.0
    for i in range(20):
        t = 0.25 + 0.15 * i
        s_root = rv.solve_subordination(circular_model, lam, t)
        worst_res = max(worst_res, abs(rv.h_equation_residual(circular_model, lam, t, s_root)))
        h_l = rv.h_function(circular_model.aa_star_measure, s_root)
        cardano = -t * ci.cauchy_transform(complex(-t * t, 0.0), lam).real
        worst_match = max(worst_match, abs(h_l - cardano))
    ok = worst_res < 1e-10 and worst_match < 1e-6
    assert _line("9", ok, f"residual {worst_res:.2e} (tol 1e-10), match {worst_match:.2e} (tol 1e-6)")


def test_criterion_10a_lower_bound_dominance(circular_model):
    """Moment lower bounds stay below the exact norm for all k <= 20 at 1.05."""
    lam = Fraction(21, 20)
    ms = se.negative_moments_lagrange(circular_model, 20, lam=lam)
    norm = ci.inf_spec(float(lam)) ** -0.5
    ok = all(rv.lower_bound_from_moments(ms, k) <= norm for k in range(1, 21))
    assert _line("10a", ok, f"all bounds below the exact norm {norm:.4f} at lam = 1.05")


def test_criterion_10b_fuss_catalan_root_at_50():
    """Literal criterion: (C2_50)^{1/100} within 2% of (3/2) sqrt(3).

    The exact value is 2.4154..., which is 7.0% below the limit 2.5981 (the
    convergence carries a log(k)/k correction); the clause cannot hold as
    stated.  The assertion stays literal and fails honestly; the ratio
    estimator sqrt(C2_51 / C2_50) = 2.5601 does land within 2% and is tested
    in the regular modules.
    """
    target = 1.5 * math.sqrt(3.0)
    value = rv.fuss_catalan_root(50)
    rel = abs(value - target) / target
    ok = rel < 0.02
    _line("10b", ok, f"(C2_50)^(1/100) = {value:.4f} vs {target:.4f}: {rel * 100:.2f}%")
    assert ok, (
        f"criterion 10 k=50 clause is unattainable as stated: (C2_50)^(1/100) = "
        f"{value:.6f} deviates {rel * 100:.2f}% from (3/2)sqrt(3) = {target:.6f} "
        f"(> 2%; see notes/decisions.md)"
    )
