"""Replay every benchmark request through ``freeprob.cli.main`` and digest the outputs.

Usage (from the repository root):

    python3 tools/replay_workloads.py --src ../parent/src --out old.json
    python3 tools/replay_workloads.py --src src --against old.json

Each workload, at seeds 1 and 2 and the request count of ``--seconds 25``,
gets its request list from ``perfbench/workloads.py`` (the same argv lists
and model files the benchmark runs) and is replayed in
one process, in order, so caches are shared as in a benchmark worker.  One
line per workload and seed gives the request count and a digest of every
(exit code, stdout, stderr); equal digests on two source trees mean
byte-identical behaviour.  ``--out`` keeps the records for a diff;
``--against`` compares with records kept that way and exits 1 on any
difference.  For every request that differs it prints whether the exit code
and stderr match, and the largest relative difference in each numeric CSV
column of stdout (a change of float bits reads as a small number there; a
change of text, row count or column shape is named as such).  A last line
gives the largest difference per column over all requests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectral", "exact", "models")
SEEDS = (1, 2)
SECONDS = 25  # run_seconds in BENCHMARK.json
FIELDS = ("rc", "stdout", "stderr")


def replay(workload: str, seed: int, main) -> list[dict]:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(f"{workload}-{seed}")
        (Path(tmp) / run_dir).mkdir()
        requests, _ = workloads.generate(workload, seed, SECONDS, Path(tmp), run_dir)
        cwd = os.getcwd()
        os.chdir(tmp)  # model files are named relative to the generation root
        try:
            records = []
            for req in requests:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = main(req["argv"])
                except SystemExit as exc:  # argparse refusals
                    rc = exc.code
                except Exception as exc:  # a crash is a record too
                    rc = f"crash: {type(exc).__name__}: {exc}"
                records.append({"argv": req["argv"], "rc": rc,
                                "stdout": out.getvalue(), "stderr": err.getvalue()})
        finally:
            os.chdir(cwd)
    return records


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def _rel(old: str, new: str) -> float | None:
    """|new - old| / max(|old|, |new|) for two numeric fields, None otherwise."""
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return None
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def stdout_difference(old: str, new: str) -> tuple[dict, list]:
    """({column: largest relative difference}, [non-numeric differences]) of
    two CSV outputs.  Columns are named by the header, the first line, when it
    is not numeric, and by their index otherwise."""
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    if len(old_rows) != len(new_rows):
        return {}, [f"{len(old_rows)} -> {len(new_rows)} lines"]
    header = old_rows[0] if old_rows and all(_number(f) is None for f in old_rows[0]) else None
    worst, other = {}, []
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        if a == b:
            continue
        if len(a) != len(b):
            other.append(f"line {i}: {len(a)} -> {len(b)} fields")
            continue
        for j, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            name = header[j] if header and j < len(header) else str(j)
            rel = _rel(x, y)
            if rel is None:
                other.append(f"line {i} {name}: {x!r} -> {y!r}")
            else:
                worst[name] = max(worst.get(name, 0.0), rel)
    return worst, other


def differences(old: dict, new: dict) -> tuple[list[str], dict]:
    """One line per request of ``new`` whose record differs from the saved
    ``old`` one, and the largest relative difference per stdout column."""
    lines, overall = [], {}
    for key, records in new.items():
        workload, seed = key.rsplit("-", 1)
        saved = old.get(key, [])
        for i, rec in enumerate(records):
            where = f"{workload} seed {seed} request {i} {rec['argv']}"
            if i >= len(saved):
                lines.append(f"{where}: not in the saved records")
                continue
            if all(saved[i][f] == rec[f] for f in FIELDS):
                continue
            parts = [f"rc {'same' if saved[i]['rc'] == rec['rc'] else 'differs'}",
                     f"stderr {'same' if saved[i]['stderr'] == rec['stderr'] else 'differs'}"]
            worst, other = stdout_difference(saved[i]["stdout"], rec["stdout"])
            parts += [f"{name} {rel:.2e}" for name, rel in worst.items()] + other
            for name, rel in worst.items():
                overall[name] = max(overall.get(name, 0.0), rel)
            lines.append(f"{where}: " + ", ".join(parts))
        if len(saved) > len(records):
            lines.append(f"{workload} seed {seed}: requests {len(records)}.. missing from this replay")
    return lines, overall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="source tree holding the freeprob package")
    parser.add_argument("--out", help="write every record to this JSON file")
    parser.add_argument("--against", metavar="OLD.json",
                        help="compare with records written by --out; report every difference, exit 1")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import freeprob.cli

    everything = {}
    total = hashlib.sha256()
    for workload in WORKLOADS:
        for seed in SEEDS:
            records = replay(workload, seed, freeprob.cli.main)
            blob = json.dumps([[r["rc"], r["stdout"], r["stderr"]] for r in records]).encode()
            total.update(blob)
            print(f"{workload} seed {seed}: {len(records)} requests, "
                  f"digest {hashlib.sha256(blob).hexdigest()[:16]}")
            everything[f"{workload}-{seed}"] = records
    print(f"all: {sum(map(len, everything.values()))} requests, digest {total.hexdigest()[:16]}")
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    if args.against:
        lines, overall = differences(json.loads(Path(args.against).read_text()), everything)
        if lines:
            print(*lines, sep="\n")
            worst = ", ".join(f"{name} {rel:.2e}" for name, rel in overall.items()) or "none"
            print(f"{len(lines)} requests differ from {args.against}; "
                  f"largest relative difference per column: {worst}")
            return 1
        print(f"same records as {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
