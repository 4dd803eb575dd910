"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def make_span(name, start, end, parent, steps_in, steps_out, **fields):
    s = spans.Span(name, start, parent, 0, steps_in)
    s.end, s.steps_out = end, steps_out
    for key, value in fields.items():
        setattr(s, key, value)
    return s


def synthetic_tree():
    """pass [0, 10] > Exponential [1, 6] > enumerate_maps x3, compose_maps;
    pass > require_quasicategory twice, the first with a check inside;
    pass > eval twice, the first a miss."""
    return [
        make_span("pass", 0.0, 10.0, None, 0, 100),
        make_span("mapping.Exponential", 1.0, 6.0, 0, 0, 60),
        make_span("simplicial.enumerate_maps", 1.5, 2.0, 1, 5, 15, results=3),
        make_span("simplicial.enumerate_maps", 2.0, 3.0, 1, 15, 35, results=4),
        make_span("simplicial.enumerate_maps", 3.0, 5.0, 1, 35, 55, results=5),
        make_span("simplicial.compose_maps", 5.0, 5.5, 1, 55, 55),
        make_span("nerve.require_quasicategory", 6.0, 7.0, 0, 60, 70),
        make_span("nerve.is_quasicategory", 6.2, 6.9, 6, 61, 69),
        make_span("nerve.require_quasicategory", 7.0, 7.5, 0, 70, 70),
        make_span("prederivator.eval", 7.5, 8.5, 0, 70, 90, miss=True),
        make_span("prederivator.eval", 8.5, 8.6, 0, 90, 90),
    ]


class TestSelfCosts:
    def test_nested_tree(self):
        own = spans.self_costs(synthetic_tree())
        expected = [
            (10 - 5 - 1 - 0.5 - 1 - 0.1, 100 - 60 - 10 - 0 - 20 - 0),
            (5 - 0.5 - 1 - 2 - 0.5, 60 - 10 - 20 - 20 - 0),
            (0.5, 10), (1.0, 20), (2.0, 20), (0.5, 0),
            (1 - 0.7, 10 - 8), (0.7, 8), (0.5, 0), (1.0, 20), (0.1, 0),
        ]
        for (secs, steps), (want_secs, want_steps) in zip(own, expected):
            assert secs == pytest.approx(want_secs)
            assert steps == want_steps
        # self costs partition the root span
        assert sum(o[0] for o in own) == pytest.approx(10.0)
        assert sum(o[1] for o in own) == 100

    def test_layer_metrics(self):
        m = spans.layer_metrics(synthetic_tree())
        assert m["mapping.Exponential.calls"] == 1
        assert m["mapping.Exponential.self_s"] == pytest.approx(1.0)
        assert m["mapping.Exponential.maps"] == 12
        assert m["mapping.Exponential.level2_maps"] == 5
        assert m["simplicial.enumerate_maps.calls"] == 3
        assert m["simplicial.enumerate_maps.steps"] == 50
        assert m["simplicial.enumerate_maps.results_per_step"] == pytest.approx(12 / 50)
        assert m["nerve.require_quasicategory.hit_ratio"] == pytest.approx(0.5)
        assert m["prederivator.eval.hit_ratio"] == pytest.approx(0.5)
        assert m["prederivator.on_functor.calls"] == 0
        assert m["prederivator.on_functor.hit_ratio"] == 0
        assert m["trace.unattributed_frac"] == pytest.approx(2.4 / 10)
        assert m["trace.span_errors"] == 0


class TestNames:
    def test_metric_names_are_valid(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name
        assert len(names) == len(set(names))

    def test_benchmark_lists_what_the_trace_reports(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [m["name"] for m in bench["per_layer"]] == spans.metric_names()
        for m in bench["per_layer"]:
            assert m["unit"] == spans.UNITS[m["name"].rsplit(".", 1)[1]], m["name"]
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


class TestCorrectnessGate:
    def test_flipped_agreement_label_fails(self, tmp_path):
        expected = workloads.load_expected()["whitehead"]
        p = workloads.Pass(7)
        workloads.whitehead_pass(p, workloads.whitehead_setup(tmp_path))
        assert p.failures(expected) == []
        corrupted = dict(expected)
        cells = list(corrupted["row/collapse_E"])
        cells[0] = "False" if cells[0] == "True" else "True"
        corrupted["row/collapse_E"] = cells
        failed = p.failures(corrupted)
        assert failed == ["row/collapse_E"]
        assert len(failed) / len(corrupted.keys() | p.observed.keys()) > 0

    def test_exception_fails_only_its_group(self):
        p = workloads.Pass(0)
        with p.group("first"):
            p.record("a", 1)
        with p.group("second"):
            raise RuntimeError("boom")
        assert p.failures({"a": 1, "b": 2}) == ["b"]
        assert "RuntimeError: boom" in p.errors[0]


def test_traced_worker_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "simplices", "3", "1", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)])))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    (p,) = result["passes"]
    assert p["failed"] == [] and p["errors"] == []
    assert p["steps"] > 0
    assert set(p["layers"]) == set(spans.metric_names()) - {"trace.overhead_s", "pass.wall_s"}
    assert p["layers"]["trace.span_errors"] == 0
    assert p["layers"]["mapping.Exponential.calls"] == 0
