"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion the ``freeprob.verify`` registry states reads its record
from the shared report and prints the check's detail; the ranges and
tolerances live in the check alone.  Two clauses are implemented literally
here although exact arithmetic shows the stated tolerance cannot hold
(criterion 5 for k >= 2 and the k = 50 root clause of criterion 10); they
fail honestly, with the analysis in the project notes.  The true nearby
statements are the checks negative-moment-asymptotics (lam = 1.001) and
fuss-catalan-root-limit (the ratio estimator).
"""

import math
from fractions import Fraction

from freeprob import noncrossing as nc
from freeprob import resolvent as rv
from freeprob import series as se


def _line(num: str, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def _verify_record(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_criterion_1_circular_r_transform(verify_report):
    """Both derivation routes give kappa_n = 1 + n lam^2 exactly, n = 1..8:
    the r-transform-identity check."""
    record = _verify_record(verify_report, "r-transform-identity")
    assert _line("1", record["passed"], record["detail"])


def test_criterion_2_support_endpoints_and_norm(verify_report):
    """Critical-point search reproduces the endpoint formulas to 1e-12 and the
    series norm matches inf_spec^{-1/2} to 1e-9, lam in {1.01,1.1,1.5,2,3}:
    the support-endpoints-critical-search and norm-vs-inf-spec checks."""
    records = [_verify_record(verify_report, name)
               for name in ("support-endpoints-critical-search", "norm-vs-inf-spec")]
    assert _line("2", all(r["passed"] for r in records), "; ".join(r["detail"] for r in records))


def test_criterion_3_main_theorem(verify_report):
    """Norm / asymptotic within 1% at lam = 1.001, 10% at 1.01, improving:
    the main-theorem-ratio check."""
    record = _verify_record(verify_report, "main-theorem-ratio")
    assert _line("3", record["passed"], record["detail"])


def test_criterion_4_negative_moment_closed_forms(verify_report):
    """m_-2 = 1/(lam^2-1), m_-4 = (lam^4-1+v)/(lam^2-1)^4, both routes, exact:
    the negative-moment-closed-forms check."""
    record = _verify_record(verify_report, "negative-moment-closed-forms")
    assert _line("4", record["passed"], record["detail"])


def test_criterion_5_negative_moment_asymptotics(circular_model, two_atom_model):
    """Literal criterion: m_{-2k-2} (lam^2-1)^{3k+1} / v^k within 5% of C2_k at
    lam = 1.01 for k <= 3, circular and two-atom.

    Exact arithmetic gives deviations of 6.2%..9.7% for k >= 2 (see the
    project notes): the tolerance is unattainable as stated.  The assertion
    is kept literal and fails honestly; the k <= 1 part holds, and the
    lam = 1.001 calibration is the negative-moment-asymptotics check.
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


def test_criterion_6_triple_route(verify_report):
    """Inversion and diagram routes agree exactly; density quadrature within
    1e-5 relative, k <= 3, lam in {1.5, 2}: the triple-route-agreement check."""
    record = _verify_record(verify_report, "triple-route-agreement")
    assert _line("6", record["passed"], record["detail"])


def test_criterion_7_psd_combinatorics(verify_report):
    """Profile counts, quadrangulation counts and segment counts, exact:
    the psd-binomial-identity and psd-quadrangulation-counts checks."""
    records = [_verify_record(verify_report, name)
               for name in ("psd-binomial-identity", "psd-quadrangulation-counts")]
    assert _line("7", all(r["passed"] for r in records), "; ".join(r["detail"] for r in records))


def test_criterion_8_compression_bijection(verify_report):
    """Round trip, injectivity, surjectivity, profile preservation, exact:
    the psd-compression-bijection check."""
    record = _verify_record(verify_report, "psd-compression-bijection")
    assert _line("8", record["passed"], record["detail"])


def test_criterion_9_subordination(verify_report):
    """h_lam from root finding matches the Cardano route through w -> w^2
    within 1e-6 at 20 points; every defining residual below 1e-10: the
    subordination-residuals check."""
    record = _verify_record(verify_report, "subordination-residuals")
    assert _line("9", record["passed"], record["detail"])


def test_criterion_10a_lower_bound_dominance(verify_report):
    """Moment lower bounds stay below the exact norm for all k <= 20 at 1.05:
    the lower-bound-k20 check."""
    record = _verify_record(verify_report, "lower-bound-k20")
    assert _line("10a", record["passed"], record["detail"])


def test_criterion_10b_fuss_catalan_root_at_50():
    """Literal criterion: (C2_50)^{1/100} within 2% of (3/2) sqrt(3).

    The exact value is 2.4154..., which is 7.0% below the limit 2.5981 (the
    convergence carries a log(k)/k correction); the clause cannot hold as
    stated.  The assertion stays literal and fails honestly; the ratio
    estimator sqrt(C2_51 / C2_50) = 2.5601 does land within 2%: the
    fuss-catalan-root-limit check.
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
