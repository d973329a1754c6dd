"""The named verification suites themselves."""

import pytest

from freeprob import verify


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_suite_passes(suite, verify_report):
    checks = [c for c in verify_report["checks"] if c["suite"] == suite]
    failed = [c for c in checks if not c["passed"]]
    assert checks and not failed, failed


def test_all_runs_everything(verify_report):
    assert verify_report["total"] == len(verify._REGISTRY)
    assert {c["suite"] for c in verify_report["checks"]} == set(verify.SUITES)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_crashing_check_reports_failure(monkeypatch):
    import freeprob.psd

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(freeprob.psd, "count_quadrangulations", boom)
    check = next(c for c in verify._REGISTRY if c.name == "psd-quadrangulation-counts")
    monkeypatch.setattr(verify, "_REGISTRY", [check])
    report = verify.run_suite("combinatorial")
    bad = [c for c in report["checks"] if c["name"] == "psd-quadrangulation-counts"]
    assert bad and not bad[0]["passed"]
    assert "injected" in bad[0]["detail"]
