"""One workload run: a single client in a closed loop, in one fresh process.

    python3 perfbench/worker.py REQUESTS.json RESULTS.json [--trace]

Imports ``freeprob.cli`` from ``src/`` of the checkout and calls
``freeprob.cli.main(argv)`` once per request, in order, each call starting
only after the previous one returned.  Standard output and error of each
call are captured.  Requests share the process, so the program's own caches
start cold and fill as the run goes, as in a library session.

With ``--trace`` the public functions of each module are wrapped first (see
tracer.py) and the spans are written into RESULTS.json at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(requests: list[dict], trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import freeprob
    import freeprob.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(freeprob)
    main = freeprob.cli.main  # looked up after install, so the cli span is the root
    results = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        if tracer is not None:
            tracer.request = req["id"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(req["argv"])
        except SystemExit as exc:  # argparse refusals
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is recorded and the loop goes on
            rc, crash = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append({"id": req["id"], "rc": rc, "seconds": seconds, "crash": crash,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_s() - cpu0
    report = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    return report


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--trace"):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        requests = json.load(fh)
    report = run(requests, trace=len(argv) == 3)
    with open(argv[1], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
