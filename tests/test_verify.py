"""The named verification suites themselves: one pytest id per registry check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freeprob
from freeprob import verify


@pytest.mark.parametrize("name", [c.name for c in verify._REGISTRY])
def test_check_passes(name, registry_record):
    registry_record(name)


@pytest.mark.parametrize("suite", verify.SUITES)
def test_each_suite_passes(suite, verify_report):
    checks = [c for c in verify_report["checks"] if c["suite"] == suite]
    failed = [c for c in checks if not c["passed"]]
    assert checks and not failed, failed


def test_all_runs_everything(verify_report):
    assert verify_report["total"] == len(verify._REGISTRY)
    assert {c["suite"] for c in verify_report["checks"]} == set(verify.SUITES)
    assert len({c.name for c in verify._REGISTRY}) == len(verify._REGISTRY)


def test_every_record_has_its_wall_time(verify_report):
    assert all(c["seconds"] >= 0 for c in verify_report["checks"])


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
    assert bad[0]["seconds"] >= 0


def test_verify_loads_no_numpy():
    # the registry imports, and the checks that drew numpy sample streams,
    # bisected, or took companion eigenvalues run, on the stdlib alone
    names = ["k-transform-forms", "support-endpoints-critical-search",
             "cauchy-functional-inverse", "cauchy-herglotz"]
    probe = (
        "import json, sys\n"
        "from freeprob import verify\n"
        f"records = [c.fn() for c in verify._REGISTRY if c.name in {names!r}]\n"
        "print(json.dumps([len(records), all(r['passed'] for r in records), 'numpy' in sys.modules]))\n"
    )
    src = str(Path(freeprob.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, check=True)
    assert json.loads(done.stdout) == [len(names), True, False]
