"""Write ``expected.json``: the values one pass of each workload observes.

    PYTHONPATH=src:perfbench python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known good; the benchmark's
correctness gate compares every later pass with the file it writes.
"""

import json
import tempfile
from pathlib import Path

import workloads

if __name__ == "__main__":
    expected = {}
    for name, (setup, run_pass) in workloads.WORKLOADS.items():
        p = workloads.Pass(0)
        with tempfile.TemporaryDirectory() as workdir:
            run_pass(p, setup(Path(workdir)))
        if p.errors:
            raise SystemExit("\n".join(p.errors))
        expected[name] = p.observed
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
