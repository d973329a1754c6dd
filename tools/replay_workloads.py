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
``--against`` compares with records kept that way, prints the first workload,
seed and request whose (exit code, stdout, stderr) differs, and exits 1.
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


def first_difference(old: dict, new: dict) -> str | None:
    """Where the records in ``new`` first leave the saved ``old`` ones, or None."""
    for key, records in new.items():
        workload, seed = key.rsplit("-", 1)
        saved = old.get(key, [])
        for i, rec in enumerate(records):
            if i >= len(saved):
                return f"{workload} seed {seed} request {i}: not in the saved records"
            changed = [f for f in FIELDS if saved[i][f] != rec[f]]
            if changed:
                return (f"{workload} seed {seed} request {i} {rec['argv']}: "
                        f"differs in {', '.join(changed)}")
        if len(saved) > len(records):
            return f"{workload} seed {seed} request {len(records)}: missing from this replay"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="source tree holding the freeprob package")
    parser.add_argument("--out", help="write every record to this JSON file")
    parser.add_argument("--against", metavar="OLD.json",
                        help="compare with records written by --out; exit 1 at a difference")
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
        where = first_difference(json.loads(Path(args.against).read_text()), everything)
        if where:
            print(f"first difference from {args.against}: {where}")
            return 1
        print(f"same records as {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
