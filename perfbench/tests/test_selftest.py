"""Self-tests of the benchmark: tracing must observe, never perturb.

Run from the repository root (about three minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import layers  # noqa: E402
from perfbench.run import Bench  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: A seed used by no golden file and by no figure in NOTES.md.
HELD_OUT = 7


def _counts(metrics):
    return {
        key: metrics[key]["value"]
        for key in layers.DETERMINISTIC
        if key in metrics
    }


def _traced(name, seed, tmp_path):
    bench = Bench(WORKLOADS[name], seed)
    metrics = layers.traced_metrics(bench, 0, tmp_path)
    assert bench.problems == []
    assert bench.failed == 0
    return metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_and_match_untraced(name, tmp_path):
    # Each traced_metrics call runs two traced iterations and fails the
    # run unless both outputs equal the untraced output byte for byte
    # and every deterministic count repeats exactly.
    first = _counts(_traced(name, 0, tmp_path))
    assert first["sim.events"] > 0
    assert first["sensors.samples"] > 0
    assert first["planning.train.calls"] > 0
    assert first["core.bus.events"] > 0
    held_out = _counts(_traced(name, HELD_OUT, tmp_path))
    if name.startswith("fleet-"):
        assert first["fleet.policy_load.calls"] > 0
        assert held_out != first
    else:
        # The report's work is fixed by the paper; the seed only
        # reorders its sections.
        assert held_out == first


def test_self_time_excludes_wrapped_children():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(20000))

    original = Layer.outer
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    Layer().outer()
    tracer.uninstall()
    assert Layer.outer is original
    spans = {name: (start, end) for _, _, name, start, end in tracer.spans}
    times = tracer.layer_times()
    assert times["inner"][0] == 2 and times["outer"][0] == 1
    outer_ns = spans["outer"][1] - spans["outer"][0]
    inner_ns = sum(
        end - start for _, _, name, start, end in tracer.spans
        if name == "inner"
    )
    assert times["outer"][1] == pytest.approx((outer_ns - inner_ns) / 1e9)


def test_count_on_delete_counts_each_object_once():
    class Counter:
        def __init__(self, n):
            self.n = n

    tracer = Tracer()
    tracer.count_on_delete(Counter, lambda obj: [("n", obj.n)])
    kept = Counter(5)
    Counter(2)
    gc.collect()
    tracer.uninstall()
    del kept
    assert tracer.counts["n"] == 2
    assert "__del__" not in vars(Counter)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(["--workload", "report-full", "--seed", "0",
                 "--seconds", "0", "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[section]
    }


def test_per_layer_table_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == list(layers.PER_LAYER)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "report-full", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
