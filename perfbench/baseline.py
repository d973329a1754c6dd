"""One-shot timing of the ROADMAP Baseline layer rows, with the machine facts.

    python3 perfbench/baseline.py

Runs each row once, in this fresh process, in the order listed (so
``profile_table(3)`` is a cache miss), and prints the measured time beside
the figure the ROADMAP Baseline records.  A single run is a spot check, not a
benchmark result: use run.py for anything compared across commits.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _blas(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def rows():
    from freeprob import circular, cumulants, models, psd, series

    circ = models.circular_model()
    return [
        ("circular.density(2, 512)", "2.3-3.1 s", lambda: circular.density(2.0, 512)),
        ("models.two_atom_model()", "3.0 s", models.two_atom_model),
        ("models.haar_model()", "3.0 s", models.haar_model),
        ("psd.profile_table(3)", "0.38 s", lambda: psd.profile_table(3)),
        ("series.negative_moments_lagrange(circular, k=40, lam=3/2)", "0.96 s",
         lambda: series.negative_moments_lagrange(circ, 40, lam=Fraction(3, 2))),
        ("cumulants.circular_shift_cumulants(8)", "2.7 s",
         lambda: cumulants.circular_shift_cumulants(8)),
    ]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    print(f"commit {_commit()}")
    print(f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})  "
          f"python {platform.python_version()}  numpy {np.__version__}  blas {_blas(np)}")
    print("blas threads: " + ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV))
    print(f"{'layer row':60s} {'ROADMAP':>10s} {'measured':>10s}")
    for name, roadmap, fn in rows():
        t0 = time.perf_counter()
        fn()
        print(f"{name:60s} {roadmap:>10s} {time.perf_counter() - t0:>8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
