"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload whitehead --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run first starts a few processes that only set up, then
starts worker processes, each doing set-up plus ``PASSES_PER_WORKER``
passes, until the next worker would end after ``--seconds``; at least one
worker runs (with ``--trace 1``, one untraced and one traced).  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  Workers write into
``.perfbench/`` at the root of the checkout and remove what they wrote,
except the span files of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from statistics import median, median_low
import subprocess
import sys
import time
from pathlib import Path

from spans import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("whitehead", "audit", "simplices")
# The second pass of a worker runs after the first has left its caches
# behind, which is what makes cross-pass growth visible in peak memory.
PASSES_PER_WORKER = 2
SETUP_PROBES = 5
# A run must end within 180 s: no worker starts after HARD_LIMIT_S, and
# any process still running at DEADLINE_S is killed.
HARD_LIMIT_S = 150.0
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def spawn(args: list, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    rng = random.Random(seed)
    probes = [spawn([workload, 0, 0, 0], DEADLINE_S - (time.perf_counter() - start))
              for _ in range(SETUP_PROBES)]
    workers = []
    durations = []
    spans_dir = ROOT / ".perfbench"
    while True:
        traced = trace and len(workers) % 2 == 1
        elapsed = time.perf_counter() - start
        args = [workload, rng.randrange(2**32), PASSES_PER_WORKER, int(traced)]
        if traced:
            args.append(spans_dir / f"spans-{workload}-{seed}.jsonl.gz")
        out = spawn(args, DEADLINE_S - elapsed)
        out["traced"] = traced
        workers.append(out)
        durations.append(time.perf_counter() - start - elapsed)
        elapsed = time.perf_counter() - start
        if len(workers) >= (2 if trace else 1) and (
                elapsed + max(durations) > seconds or elapsed > HARD_LIMIT_S):
            break
    setups = [w["setup_rescaled_s"] for w in probes + workers]
    passes = [(w["traced"], p) for w in workers for p in w["passes"]]
    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(len(p["failed"]) for _, p in passes)
    for _, p in passes:
        for err in p["errors"]:
            print(err, file=sys.stderr)
        if p["failed"]:
            print(f"failed instances: {p['failed']}", file=sys.stderr)
    steps = {p["steps"] for _, p in passes}
    if len(steps) > 1:
        print(f"budget steps differ between passes: {sorted(steps)}", file=sys.stderr)
    plain = [p for traced, p in passes if not traced]
    wall = median([p["wall_s"] for p in plain])
    if trace:
        layered = [p["layers"] for traced, p in passes if traced]
        metrics = {name: median([m[name] for m in layered]) for name in layered[0]}
        metrics["trace.overhead_s"] = median(
            [p["wall_s"] for traced, p in passes if traced]) - wall
        metrics["pass.wall_s"] = wall
        metrics = {name: {"value": v, "unit": UNITS[name.rsplit(".", 1)[1]]}
                   for name, v in metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": median([p["wall_rescaled_s"] for p in plain]), "unit": "s"},
            "budget_steps": {"value": median_low([p["steps"] for p in plain]),
                             "unit": "count"},
            "peak_rss_mb": {"value": median([w["peak_rss_mb"] for w in workers]),
                            "unit": "MB"},
            "verified_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    print(f"set-up: {median([w['setup_s'] for w in probes + workers]):.4f} s measured, "
          f"{median(setups):.4f} s rescaled (median of {len(setups)})")
    for i, (traced, p) in enumerate(passes):
        print(f"pass {i}{' traced' if traced else ''}: {p['wall_s']:.3f} s wall "
              f"({p['wall_rescaled_s']:.3f} s rescaled), "
              f"{p['cpu_s']:.3f} s cpu, {p['steps']} steps, "
              f"{p['attempted'] - len(p['failed'])}/{p['attempted']} verified")
    return {"correct": failed == 0 and len(steps) == 1, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qcatkit" / "__init__.py").is_file():
        print(f"no qcatkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
