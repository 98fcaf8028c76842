"""Bench: the idle-horizon block sampler vs the per-sample oracle.

Times the two sensing-bound experiment cells (``ablation.radio`` and
``table3.extract``) under the per-sample firmware oracle
(``tests/oracles/firmware.py``) and the production block sampler,
asserts the outputs are identical (the byte-identity contract of
``docs/architecture.md``) and that the block sampler wins by at least
3x, then re-times the full ``--fast`` runner.  Measurements land in
``BENCH_sensing.json`` at the repo root, extending the perf trajectory
of ``BENCH_runner.json``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core.config import CoReDAConfig
from repro.evalx.ablations import plan_radio_sweep
from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.parallel import run_section
from repro.evalx.runner import run_all

_ROOT = Path(__file__).resolve().parent.parent
# The oracle lives with the tier-1 tests, outside the package.
sys.path.insert(0, str(_ROOT / "tests"))
from oracles.firmware import per_sample_firmware  # noqa: E402

_OUT = _ROOT / "BENCH_sensing.json"
_JOBS = 4
#: The PR 1 baselines the runner must stay under (BENCH_runner.json).
_RUNNER_COLD_BUDGET = 1.808
_RUNNER_WARM_BUDGET = 1.208
_REQUIRED_SPEEDUP = 3.0


def _best_of(fn, rounds=3):
    """(best wall-clock seconds, last result) over ``rounds`` runs."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _firmware(oracle):
    return per_sample_firmware() if oracle else nullcontext()


def _radio_cell(tea, oracle):
    with _firmware(oracle):
        return run_section(plan_radio_sweep(tea, samples_per_step=8))


def _extract_cell(paper_adls, oracle):
    with _firmware(oracle):
        result = run_section(
            plan_extract_precision(
                paper_adls,
                samples_per_step=10,
                config=CoReDAConfig(),
                seed=0,
            )
        )
    return [
        (row.step_name, row.detections, row.trials) for row in result.rows
    ]


def test_sensing_fast_path(benchmark, paper_adls, tmp_path):
    tea = paper_adls[1]
    assert tea.adl.name == "tea-making"

    # --- sensing-bound cells: per-sample oracle vs block sampler ------
    radio_slow_s, radio_slow = _best_of(lambda: _radio_cell(tea, True))
    radio_fast_s, radio_fast = _best_of(lambda: _radio_cell(tea, False))
    assert radio_fast == radio_slow  # identical merged table

    extract_slow_s, extract_slow = _best_of(
        lambda: _extract_cell(paper_adls, True)
    )
    extract_fast_s, extract_fast = _best_of(
        lambda: _extract_cell(paper_adls, False)
    )
    assert extract_fast == extract_slow  # identical Table 3 counts

    radio_speedup = radio_slow_s / radio_fast_s
    extract_speedup = extract_slow_s / extract_fast_s

    # --- end-to-end runner, as BENCH_runner.json measures it ---------
    cache = str(tmp_path / "policy-cache")
    start = time.perf_counter()
    serial = run_all(fast=True)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    cold = run_all(fast=True, jobs=_JOBS, cache_dir=cache)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = run_all(fast=True, jobs=_JOBS, cache_dir=cache)
    warm_s = time.perf_counter() - start
    assert cold == serial
    assert warm == serial

    # The benchmarked quantity: the production extract cell (the
    # hottest purely sensing-bound unit of work).
    benchmark.pedantic(
        _extract_cell, args=(paper_adls, False), rounds=1, iterations=1
    )

    payload = {
        "equivalent_outputs": True,
        "cells": {
            "ablation.radio": {
                "oracle_seconds": round(radio_slow_s, 3),
                "production_seconds": round(radio_fast_s, 3),
                "speedup": round(radio_speedup, 2),
            },
            "table3.extract": {
                "oracle_seconds": round(extract_slow_s, 3),
                "production_seconds": round(extract_fast_s, 3),
                "speedup": round(extract_speedup, 2),
            },
        },
        "runner_fast_report": {
            "serial_seconds": round(serial_s, 3),
            "parallel_cold_cache_seconds": round(cold_s, 3),
            "parallel_warm_cache_seconds": round(warm_s, 3),
            "cold_budget_seconds": _RUNNER_COLD_BUDGET,
            "warm_budget_seconds": _RUNNER_WARM_BUDGET,
        },
    }
    _OUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {_OUT}")
    print(json.dumps(payload, indent=2))

    assert radio_speedup >= _REQUIRED_SPEEDUP
    assert extract_speedup >= _REQUIRED_SPEEDUP
    assert cold_s <= _RUNNER_COLD_BUDGET
    assert warm_s <= _RUNNER_WARM_BUDGET
