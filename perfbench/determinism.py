"""Determinism self-check: run every workload twice at one seed and
require the same count metrics and the same corpus fingerprint.

    python3 perfbench/determinism.py [--seed N] [--seconds S]

Counts are the per-layer metrics that are not times (traced runs) and
max_depth_decided (untraced runs).  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, TIME_METRICS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = {m["name"] for m in SPEC["per_layer"] if not m["name"].endswith(TIME_METRICS)}
COUNTS |= {m["name"] for m in SPEC["end_to_end"] if m["unit"] == "n"}


def counts(workload: str, seed: int, seconds: float, trace: int) -> dict[str, object]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    out = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items() if name in COUNTS}
    out.update(("fingerprint", line.split()[3]) for line in lines if "corpus fingerprint" in line)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    bad = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            first, second = (counts(workload, args.seed, args.seconds, trace) for _ in range(2))
            diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k)}
            bad += bool(diff)
            print(f"{workload:9s} trace {trace}: {len(first)} counts, "
                  + (f"DIFFERENT {diff}" if diff else "identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
