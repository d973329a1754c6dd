"""The freeprob benchmark: one seeded workload run, checked, as one JSON line.

    python3 perfbench/run.py --workload {spectral,exact,models} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It generates the workload's requests
from the seed, times the import of ``freeprob.cli`` in several fresh
interpreters (``setup_s``), runs the requests in one fresh worker process
(worker.py), checks every output against an independent reference
(checks.py), prints a readable report and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the worker a second time with the
outside-in tracer (tracer.py) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import checks
import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import freeprob.cli; print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, worker failed)."""


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Linear-interpolated q-quantile (0 <= q <= 1) and the sample count."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def setup_seconds() -> list[float]:
    """Import time of freeprob.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"importing freeprob.cli failed: {out.stderr.strip()[-500:]}")
        samples.append(float(out.stdout))
    return samples


def run_worker(requests_file: Path, results_file: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(requests_file), str(results_file)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(results_file) as fh:
        return json.load(fh)


def refusal_cause(stderr: str) -> str:
    """The refusal message with its numbers blanked, so equal causes group."""
    lines = [line for line in stderr.strip().splitlines() if line.strip()]
    text = lines[-1] if lines else "no message"
    text = re.sub(r"[-+]?\d[\d.eE+-]*", "#", text.removeprefix("error: "))
    return "refused: " + text[:120]


def assess(requests: list[dict], report: dict) -> dict:
    """Classify every result and collect the float errors."""
    causes: Counter = Counter()
    errors: dict[str, float] = {}
    wrong: list[str] = []
    ok_seconds = []
    for req, res in zip(requests, report["results"]):
        if res["crash"] is not None:
            causes["crash: " + res["crash"].split(":")[0]] += 1
            continue
        if res["rc"] != 0:
            causes[refusal_cause(res["stderr"])] += 1
            continue
        broken, errs = checks.check(req, res["stdout"])
        if broken is not None:
            causes["identity: " + broken] += 1
            wrong.append(f"request {req['id']} {' '.join(req['argv'])}: {broken}")
            continue
        for name, err in errs.items():
            errors[name] = max(errors.get(name, 0.0), err)
        for name in checks.out_of_tolerance(errs):
            wrong.append(f"request {req['id']} {' '.join(req['argv'])}: {name} error {errs[name]:.3g}")
        ok_seconds.append(res["seconds"])
    return {"causes": causes, "errors": errors, "wrong": wrong, "ok_seconds": ok_seconds,
            "failed": sum(causes.values())}


def end_to_end(setup: list[float], report: dict, verdict: dict, attempted: int) -> dict:
    p50, _ = percentile(verdict["ok_seconds"], 0.5)
    p90, _ = percentile(verdict["ok_seconds"], 0.9)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (report["wall_s"], "s"),
        "req_p50_ms": (1e3 * p50, "ms"),
        "req_p90_ms": (1e3 * p90, "ms"),
        "ok_frac": (1.0 - verdict["failed"] / attempted, "ratio"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }


# Span-derived metrics: span name -> the fields reported for it.
LAYER_FIELDS = {
    "circular.density": ("self_s",),
    "circular.cauchy_transform": ("calls", "self_s"),
    "measures.integrate": ("calls", "self_s"),
    "noncrossing.enumerate_nc": ("items", "self_s"),
    "noncrossing.enumerate_alternating": ("items", "self_s"),
    "cumulants.rdiag_moment": ("calls", "self_s"),
    "models.load_model": ("calls", "self_s"),
    "psd.enumerate_psd": ("calls", "items", "self_s"),
    "psd.moment_polynomial": ("calls", "self_s"),
    "series.negative_moments_lagrange": ("self_s",),
    "series.lagrange_invert": ("self_s",),
    "resolvent.resolvent_norm": ("calls", "self_s"),
}


def per_layer(plain: dict, traced: dict, verdict: dict, attempted: int) -> dict:
    s = tr.summarize(traced["spans"])
    counts = traced["counts"]
    empty = {"calls": 0, "items": 0, "self_s": 0.0, "errors": Counter(), "reaching": Counter()}

    def row(name):
        return s.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    density, cauchy = row("circular.density"), row("circular.cauchy_transform")
    table, norm = row("psd.profile_table"), row("resolvent.resolvent_norm")
    metrics = {
        "proc.cpu_s": (plain["cpu_s"], "s"),
        "proc.trace_overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
        "cli.self_s": (row("cli")["self_s"], "s"),
        "circular.density.points": (density["items"], "count"),
        "circular.cauchy_calls_per_point": (ratio(cauchy["calls"], density["items"]), "calls/point"),
        "circular.mass_defect_max": (verdict["errors"].get("mass", 0.0), "ratio"),
        "circular.quad_rel_err_max": (verdict["errors"].get("quadrature", 0.0), "ratio"),
        "psd.profile_table.calls": (table["calls"], "count"),
        "psd.profile_table.hit_ratio": (
            ratio(table["calls"] - table["reaching"]["psd.enumerate_psd"], table["calls"]), "ratio"),
        "ring.poly_mul.calls": (counts.get("ring.poly_mul", 0), "count"),
        "resolvent.fprime_evals_per_norm": (
            ratio(counts.get("resolvent.rescaled_series_derivative", 0), norm["calls"]), "count"),
        "resolvent.regime_errors": (norm["errors"]["RegimeError"], "count"),
        "fail_frac": (verdict["failed"] / attempted, "ratio"),
        "err_max": (max(verdict["errors"].values(), default=0.0), "ratio"),
    }
    for name, fields in LAYER_FIELDS.items():
        for field in fields:
            unit = "s" if field == "self_s" else "count"
            metrics[f"{name}.{field}"] = (row(name)[field], unit)
    return metrics


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(args, requests, digest, plain, verdict, metrics) -> None:
    kinds = Counter(r["kind"] for r in requests)
    print(f"workload {args.workload}  seed {args.seed}  digest {digest}  requests {len(requests)} "
          f"({', '.join(f'{k} {n}' for k, n in kinds.items())})  closed loop, 1 client, 1 process")
    p90, n_ok = percentile(verdict["ok_seconds"], 0.9)
    above = sum(1 for x in verdict["ok_seconds"] if x > p90)
    print(f"  latency samples: {n_ok} successful requests, {above} above p90")
    fails = ", ".join(f"{c} x{n}" for c, n in verdict["causes"].most_common()) or "none"
    print(f"  fail_frac {verdict['failed'] / len(requests):.6g} ratio "
          f"({verdict['failed']}/{len(requests)}): {fails}")
    errs = ", ".join(f"{k} {v:.3g}" for k, v in sorted(verdict["errors"].items())) or "all exact"
    print(f"  err_max {max(verdict['errors'].values(), default=0.0):.6g} ratio ({errs})")
    print(f"  worker cpu_s {plain['cpu_s']:.3f}  import_s {plain['import_s']:.4f}")
    for line in verdict["wrong"][:20]:
        print(f"  WRONG {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit}")


def bench(args) -> dict:
    if not (ROOT / "src" / "freeprob" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'freeprob' / 'cli.py'} is missing")
    run_dir = Path(".perfbench_tmp") / f"{args.workload}-{args.seed}"
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    (ROOT / run_dir).mkdir(parents=True)
    try:
        requests, digest = workloads.generate(args.workload, args.seed, args.seconds, ROOT, run_dir)
        requests_file = ROOT / run_dir / "requests.json"
        requests_file.write_text(json.dumps([{"id": r["id"], "argv": r["argv"]} for r in requests]))
        setup = [] if args.trace else setup_seconds()
        plain = run_worker(requests_file, ROOT / run_dir / "results.json", trace=False)
        verdict = assess(requests, plain)
        if not verdict["ok_seconds"]:
            raise BenchError("no request succeeded: " + ", ".join(verdict["causes"]))
        attempted = len(requests)
        correct = not verdict["wrong"]
        if args.trace:
            traced = run_worker(requests_file, ROOT / run_dir / "traced.json", trace=True)
            same = [a["stdout"] == b["stdout"] for a, b in zip(plain["results"], traced["results"])]
            if not all(same):
                verdict["wrong"].append(f"{same.count(False)} outputs differ under tracing")
                correct = False
            metrics = per_layer(plain, traced, verdict, attempted)
            spans_file = ROOT / run_dir.parent / f"trace-{args.workload}-{args.seed}.json"
            spans_file.write_text(json.dumps({"fields": tr.FIELDS, "spans": traced["spans"],
                                              "counts": traced["counts"]}))
        else:
            metrics = end_to_end(setup, plain, verdict, attempted)
        print_report(args, requests, digest, plain, verdict, metrics)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": verdict["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="target run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
