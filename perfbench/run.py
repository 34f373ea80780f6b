"""Benchmark of the mu2forge kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the kernel is imported from `src/`.
Each workload is a closed loop with one client: the next item starts
when the previous verdict is in.  Every outcome is compared with the
workload's hand-written expectation.

--trace 0 measures the end-to-end metrics with no tracing; its times are
scaled to a reference machine speed (see CALIBRATION_REF_S) and also
printed as measured.  --trace 1 alternates untraced and traced rounds
over the same inputs and reports the per-layer metrics.  Both print a
readable summary and then, as the last line, one JSON object.  The exit
code is 0 only if every outcome was as expected, and 2 without `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60
LADDER_TIMEOUT_S = 60
TIME_METRICS = ("_s", ".us_per_step", ".overhead_share")

# The shared machine's speed drifts by up to a third over tens of
# seconds, which no run of this length averages out.  A fixed loop of
# allocation, hashing and dict access (the kernel's own mix), timed at
# least every CALIBRATE_EVERY_S between items, reads the machine's
# current speed; each item's time is scaled by CALIBRATION_REF_S / (loop
# time).  Scaled times are what the item would take where the loop takes
# CALIBRATION_REF_S, its time on an uncontended Intel Xeon vCPU under
# CPython 3.11.  On that machine this cut the run-to-run spread of the
# numerals median from 17% to 5%.
CALIBRATION_ITERATIONS = 6000
CALIBRATION_REF_S = 0.0025
CALIBRATE_EVERY_S = 0.05


def calibration_loop() -> float:
    t0 = time.perf_counter()
    table: dict[int, tuple] = {}
    kept = []
    for i in range(CALIBRATION_ITERATIONS):
        key = (i * 7919) & 1023
        entry = (key, table.get(key ^ 5), str(key))
        table[key] = entry
        if i & 15 == 0:
            kept.append(entry)
    return time.perf_counter() - t0


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}


def probe(*argv: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "probe.py"), *argv], env=child_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


def setup_samples(workload: str, seed: int) -> list[tuple[float, float, float]]:
    """Fresh interpreters that import the kernel and build the workload's
    inputs: (start-to-ready seconds as measured, the same scaled to the
    reference speed, import seconds)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        report = json.loads(probe("setup", workload, str(seed), timeout=PROBE_TIMEOUT_S).stdout.splitlines()[-1])
        ready = report["ready"] - start
        out.append((ready, ready * CALIBRATION_REF_S / calibration_loop(), report["import_s"]))
    return out


def depth_ladder() -> tuple[int, str]:
    """Largest rung of the ladder decided before the first that is not."""
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), "ladder"], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=LADDER_TIMEOUT_S)
        note = ""
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        note = f"; cut after {LADDER_TIMEOUT_S} s"
    best, steps = 0, []
    for line in out.splitlines():
        n, outcome = line.split()
        steps.append(f"{n} {outcome}")
        if outcome != "Equal":
            break
        best = int(n)
    return best, ", ".join(steps) + note


class Loop:
    """Runs items, times each and checks its outcome."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run_items(self, items, tracer=None, calibrate=False) -> tuple[list[float], list[float]]:
        """Seconds per item as measured, and (with calibrate) scaled to
        the reference speed; without calibrate the second list is empty."""
        raw: list[float] = []
        blocks: list[tuple[int, float]] = []  # (items so far, calibration loop seconds)
        clock = time.perf_counter
        last = clock()
        for item in items:
            if tracer is not None:
                tracer.item = self.attempted
            self.attempted += 1
            t0 = clock()
            try:
                outcome = item.run()
            except Exception as exc:  # noqa: BLE001 - a raised item is a failed item
                outcome = f"raised {type(exc).__name__}: {exc}"
            raw.append(clock() - t0)
            if outcome != item.expected:
                self.failures.append(f"{item.label}: got {str(outcome)[:200]!r}")
            if calibrate and (clock() - last >= CALIBRATE_EVERY_S or len(raw) == len(items)):
                blocks.append((len(raw), calibration_loop()))
                last = clock()
        # One loop timing is noisy (about 10%); each block of items uses
        # the median of the five timings around it.
        scaled: list[float] = []
        for j, (end, _) in enumerate(blocks):
            factor = CALIBRATION_REF_S / statistics.median(c for _, c in blocks[max(0, j - 2):j + 3])
            scaled += [t * factor for t in raw[len(scaled):end]]
        return raw, scaled


def tail(times: list[float]) -> tuple[float, float, int]:
    """The p90 of the times, or the highest percentile with at least ten
    samples beyond it; returns (value, percentile, samples beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(0, min(math.ceil(0.9 * n) - 1, n - 11))
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def measure(args, workloads) -> tuple[dict, list[str], Loop]:
    samples = setup_samples(args.workload, args.seed)
    cli_runner = workloads.CliRunner(SRC) if args.workload == "cli" else None
    wl = workloads.build(args.workload, args.seed, cli_runner)
    loop = Loop()
    raw: list[float] = []
    times: list[float] = []
    throughput: list[float] = []
    throughput_raw: list[float] = []
    start = time.perf_counter()
    # Whole rounds only, so every run decides the same mix of items.
    while not throughput or time.perf_counter() - start < args.seconds:
        round_raw, round_scaled = loop.run_items(wl.round(len(throughput)), calibrate=True)
        throughput.append(len(round_scaled) / sum(round_scaled))
        throughput_raw.append(len(round_raw) / sum(round_raw))
        raw += round_raw
        times += round_scaled
    window = time.perf_counter() - start
    if cli_runner is not None:
        rss_kb = cli_runner.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    depth, ladder = depth_ladder()
    notes = []
    if args.workload == "corpus":
        loop.failures += wl.recheck()
        digest, count = wl.fingerprint()
        notes.append(f"corpus fingerprint sha256 {digest} over {count} round-0 judgements")
    p90, pct, beyond = tail(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(s for _, s, _ in samples),
                    f"median of {len(samples)} fresh interpreters, import + build inputs; "
                    f"as measured {statistics.median(s for s, _, _ in samples):.6g}"),
        "items_per_s": (statistics.median(throughput),
                        f"median over {len(throughput)} rounds, {n} items in {window:.2f} s; "
                        f"as measured {statistics.median(throughput_raw):.6g}"),
        "verdict_p50_ms": (1000 * statistics.median(times),
                           f"median of {n} items; as measured {1000 * statistics.median(raw):.6g}"),
        "verdict_p90_ms": (1000 * p90, f"p{pct:.1f} of {n} items, {beyond} beyond it; "
                                       f"as measured {1000 * tail(raw)[0]:.6g}"),
        "failed_share": (len(loop.failures) / loop.attempted, f"{len(loop.failures)} of {loop.attempted} items"),
        "peak_rss_mb": (rss_kb / 1024, "max RSS of the CLI children" if cli_runner else "max RSS"),
        "max_depth_decided": (depth, f"ladder: {ladder}"),
    }
    return metrics, notes, loop


def in_process_cli(argv: list[str]) -> tuple[int, str]:
    from mu2forge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def measure_traced(args, workloads) -> tuple[dict, list[str], Loop]:
    from tracer import Tracer, layer_counts

    import_s = 0.0
    if args.workload == "cli":
        import_s = statistics.median(i for _, _, i in setup_samples(args.workload, args.seed))
    wl = workloads.build(args.workload, args.seed, in_process_cli)
    tracer = Tracer()
    loop = Loop()
    plain, traced, timings, counts = [], [], [], None
    notes = []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        loop.run_items(wl.round(0))
        plain.append(time.perf_counter() - t0)
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            loop.run_items(wl.round(0), tracer=tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        round_counts, timed = {}, {f"{layer}.self_s": s for layer, s in tracer.self_times().items()}
        for key, value in layer_counts(tracer).items():
            (timed if key.endswith(TIME_METRICS) else round_counts)[key] = value
        timings.append(timed)
        if counts is None:
            counts = round_counts
            tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        elif round_counts != counts:
            loop.failures.append("layer counts differ between two traced rounds of the same inputs")
    values = {name: statistics.median(t.get(name, 0.0) for t in timings)
              for name in set().union(*timings)}
    steps = counts.get("rewrite.steps", 0)
    values["rewrite.us_per_step"] = 1e6 * values.get("rewrite.self_s", 0.0) / steps if steps else 0.0
    values["cli.import_s"] = import_s
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics = {k: (v, "") for k, v in sorted({**counts, **values}.items())}
    notes.append(f"{len(traced)} traced and {len(plain)} untraced rounds of round 0; "
                 f"self times are medians over traced rounds, counts are per round")
    if args.workload == "corpus":
        loop.failures += wl.recheck()
        digest, count = wl.fingerprint()
        notes.append(f"corpus fingerprint sha256 {digest} over {count} round-0 judgements")
    return metrics, notes, loop


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mu2forge" / "__init__.py").is_file():
        print(f"error: kernel sources not found at {SRC / 'mu2forge'}", file=sys.stderr)
        return 2
    # One CPU for this process and every child it starts, so that an item
    # and the calibration loop after it run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured, notes, loop = (measure_traced if args.trace else measure)(args, workloads)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, how) in measured.items():
        print(f"  {name:28s} {value:<14.6g} {how}")
    for note in notes:
        print(f"  {note}")
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {m["name"]: {"value": measured.get(m["name"], (0, ""))[0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
