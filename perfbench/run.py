#!/usr/bin/env python3
"""Benchmark of the toric_exc verification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  This
process generates every input from the seed, runs whole rounds of the
workload, each in a fresh interpreter (child.py), while the time budget
allows, checks every output outside the timed region, and prints one JSON
object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (see README.md), with
timings scaled to a reference host speed (probe.py); with --trace 1 each
cycle runs an untraced and a traced round, and the metrics are the
per-layer ones from the traced round, plus the tracing overhead.  The
spans of a traced run are written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
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
SETUP_SAMPLES = 7
DEADLINE_S = 170          # the whole run must end within 180 s


class ChildFailed(Exception):
    pass


def _threads():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


class Spawner:
    """Starts child.py rounds one at a time and waits for each to end."""

    def __init__(self, threads, started):
        self.threads = threads
        self.started = started

    def __call__(self, workload, inputs, trace=False, threads=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["TORIC_EXC_THREADS"] = str(threads or self.threads)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"     # numpy's BLAS pool is idle here; keep threads <= nproc
        job = json.dumps({"workload": workload, "trace": trace, "inputs": inputs})
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=job, capture_output=True,
                                  text=True, env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{workload} round exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=_threads(),
                        help="TORIC_EXC_THREADS for the rounds (default: the CPUs this process may use)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "toric_exc" / "__init__.py").is_file():
        print(f"error: no toric_exc package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toric_exc
    if Path(toric_exc.__file__).resolve().parent != SRC / "toric_exc":
        print(f"error: imported toric_exc from {toric_exc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import probe
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spawn = Spawner(args.threads, started)
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Catalog(), spawn)
    setup_samples, setup_probes = [], []
    if not args.trace:
        try:
            setup_probes.append(probe.sample())
            setup_samples = [spawn("setup", {})["setup_s"] for _ in range(SETUP_SAMPLES)]
            setup_probes.append(probe.sample())
        except ChildFailed as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1

    rounds = []               # (traced, child result or None when the child failed)
    child_errors = []
    cycles_started = time.monotonic()
    while not child_errors:
        cycle_started = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            try:
                rounds.append((traced, spawn(workload.name, workload.inputs, trace=traced)))
            except ChildFailed as exc:
                rounds.append((traced, None))
                child_errors.append(str(exc))
                break
        now = time.monotonic()
        if now - cycles_started + (now - cycle_started) > args.seconds:
            break

    attempted = failed = 0
    reasons = list(child_errors)
    for _, result in rounds:
        attempted += workload.ops
        if result is None:
            failed += workload.ops
            continue
        bad = workload.check(result["outputs"])
        failed += len(bad)
        reasons += [f"op {i}: {why}" for i, why in sorted(bad.items())[:3]]

    good = next((r for _, r in rounds if r is not None), None)
    missed = workloads.self_test(workload, good["outputs"]) if good else ["no round finished"]
    for label in missed:
        reasons.append(f"self-test: the checks did not catch '{label}'")
    for line in reasons[:20]:
        print(line, file=sys.stderr)

    timed = [(r["timed_s"], probe.host_factor(r["probes"])) for _, r in rounds if r is not None]
    print("rounds (timed s, host factor): " + " ".join(f"{t:.3f},{h:.3f}" for t, h in timed), file=sys.stderr)
    metrics = {}
    if args.trace:
        traced = [r for t, r in rounds if t and r is not None]
        untraced = [r for t, r in rounds if not t and r is not None]
        per_round = [spans.layer_metrics(r["trace"]) for r in traced]
        for name in (per_round[0] if per_round else {}):
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_round), "unit": per_round[0][name][1]}
        if traced and untraced:
            overhead = statistics.median(r["timed_s"] for r in traced) - statistics.median(r["timed_s"] for r in untraced)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{workload.name}-seed{args.seed}.json", "w", encoding="utf-8") as handle:
            json.dump([r["trace"] for r in traced], handle)
    else:
        # Both timings are scaled to the reference host speed (probe.py).
        setup_s = statistics.median(setup_samples) / probe.host_factor(setup_probes)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        if timed:
            rate = statistics.median(workload.items * host / t for t, host in timed)
            metrics["items_per_s"] = {"value": rate, "unit": "items/s"}
        maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = {"value": maxrss_kb / 1024, "unit": "MB"}

    correct = failed == 0 and not missed and not child_errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
