"""Check that traced counters repeat exactly for a fixed seed.

Runs every workload twice with ``--trace 1`` and the same seed, and compares
every per-layer metric that is not derived from the clock (see
``tracer.METRICS``).  Exits 1 and lists the differences if any counter
differs, if either run reports a failed operation, or if the reported
metrics are not the ``per_layer`` list of ``BENCHMARK.json``.

    python3 perfbench/check_determinism.py [--seed 1] [--seconds 1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKLOADS
from tracer import METRICS

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def counters(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{workload}: {line['failed']} failed operations")
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    if sorted(line["metrics"]) != sorted(declared):
        raise SystemExit(f"{workload}: metrics differ from BENCHMARK.json")
    return {name: m["value"] for name, m in line["metrics"].items()
            if not METRICS[name][2]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    bad = 0
    for w in WORKLOADS:
        first = counters(w, args.seed, args.seconds)
        second = counters(w, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        for k in diff:
            print(f"{w}.{k}: {first[k]} != {second.get(k)}")
        print(f"{w}: {len(first)} counters, {len(diff)} differ")
        bad += len(diff)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
