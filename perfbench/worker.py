"""One benchmark process: set up a workload, then run a fixed number of passes.

    python3 perfbench/worker.py <workload> <seed> <passes> <trace 0|1> [<spans file>]

``run.py`` starts this with ``src/`` and ``perfbench/`` on ``PYTHONPATH``.
Set-up time runs from the start of this module, before ``qcatkit`` is
imported, to the end of the workload's set-up.  Each pass gets fresh
inputs.  Nothing is cleared between passes, so whatever the package keeps
alive from one pass to the next shows in the peak resident memory.  The
last line of standard output is one JSON object.

The speed of a shared virtual machine drifts by half or more within
seconds.  So each time is also reported rescaled to a fixed interpreter
speed: a fixed pure-Python loop is timed around set-up, and every
``SAMPLE_PERIOD_S`` from a second thread during a pass, and the measured
time is scaled by the loop's reference time over its mean measured time.
"""

import threading
import time

# the loop's time per iteration in the fast state of the machine the
# baseline was measured on (an Intel Xeon virtual machine with 2 vCPUs)
REFERENCE_S_PER_ITERATION = 0.02 / 300_000
SETUP_LOOP_ITERATIONS = 300_000
SAMPLE_LOOP_ITERATIONS = 15_000  # about 1 ms, well inside one GIL switch interval
SAMPLE_PERIOD_S = 0.1


def loop_seconds(iterations: int) -> float:
    """Time of a fixed pure-Python loop: the interpreter's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - t


def rescaled(seconds: float, iterations: int, loop_times: list) -> float:
    mean_loop = sum(loop_times) / len(loop_times)
    return seconds * REFERENCE_S_PER_ITERATION * iterations / mean_loop


class SpeedSampler:
    """Times the fixed loop every ``SAMPLE_PERIOD_S`` from a second thread."""

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(loop_seconds(SAMPLE_LOOP_ITERATIONS))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(loop_seconds(SAMPLE_LOOP_ITERATIONS))


LOOP_BEFORE_S = loop_seconds(SETUP_LOOP_ITERATIONS)
START = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, write_spans  # noqa: E402


def run(workload: str, seed: int, passes: int, traced: bool, spans_path=None) -> dict:
    expected = workloads.load_expected()[workload]
    setup, run_pass = workloads.WORKLOADS[workload]
    scratch = Path(__file__).resolve().parent.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        state = setup(workdir)
        setup_s = time.perf_counter() - START
        setup_loops = [LOOP_BEFORE_S, loop_seconds(SETUP_LOOP_ITERATIONS)]
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install([workloads])
        rng = random.Random(seed)
        results = []
        for i in range(passes):
            p = workloads.Pass(rng.randrange(2**32))
            with SpeedSampler() as sampler:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    run_pass(p, state)
                else:
                    with tracer.pass_span(i):
                        run_pass(p, state)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            entry = {"wall_s": wall,
                     "wall_rescaled_s": rescaled(wall, SAMPLE_LOOP_ITERATIONS, sampler.samples),
                     "cpu_s": cpu,
                     "steps": p.budget.used,
                     "attempted": len(expected.keys() | p.observed.keys()),
                     "failed": p.failures(expected),
                     "errors": p.errors}
            if tracer is not None:
                entry["layers"] = layer_metrics(tracer.passes[-1])
            results.append(entry)
    finally:
        shutil.rmtree(workdir)
    if tracer is not None and spans_path:
        write_spans([s for spans in tracer.passes for s in spans], spans_path)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s,
            "setup_rescaled_s": rescaled(setup_s, SETUP_LOOP_ITERATIONS, setup_loops),
            "peak_rss_mb": peak_kib / 1024, "passes": results}


if __name__ == "__main__":
    args = sys.argv[1:]
    print(json.dumps(run(args[0], int(args[1]), int(args[2]), args[3] == "1",
                         args[4] if len(args) > 4 else None)))
