"""Golden outputs: the pipeline's observable results, pinned to bytes.

Every other equivalence test compares two code paths within one run;
if a shared helper drifts, both sides drift together.  These tests
compare the one production path against outputs committed to the
repository instead, so any change to what the system computes -- not
just a disagreement between two implementations -- fails here.

Regenerating a golden is a deliberate act: it means the program's
results changed, and the commit that does it must say why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import PlanningConfig
from repro.evalx.runner import run_all
from repro.evalx.scenario import build_tea_scenario
from repro.fleet import FleetSpec, run_fleet
from repro.planning.store import training_cache_key

REPO = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"

#: sha256 of the Figure 1 scenario's trace, one sorted-key JSON object
#: per entry (``repr``-exact floats, so equal digests mean
#: bit-identical timestamps and payloads).
FIG1_TRACE_SHA256 = (
    "68b7b92f01ce776d8f3da0869fd5b2a0ce039c28fee70441437424b066f42883"
)

#: sha256 of ``FleetResult.to_json()`` for :data:`FLEET_SPEC`.
FLEET_SHA256 = (
    "a6c49758b99b2742fb41dd332283016f5c5d3ec77f26eab26ebcfe1bd674032a"
)

#: 100 homes over 32 training seed classes: ~50 distinct trainings,
#: four shards, well under three seconds at jobs=1.
FLEET_SPEC = FleetSpec(
    homes=100, seed_classes=32, training_episodes=20, shard_size=25
)

#: ``training_cache_key`` of the canonical tea-making routine under
#: the default ``PlanningConfig``.  Every on-disk policy cache is
#: addressed by these keys; a change here orphans all of them.
DEFAULT_CACHE_KEY = (
    "2fa4059e2cb92da253a7deb8fe448bbc73850875e9721425dbb9de4234dee134"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_full_report_matches_committed_report():
    expected = (REPO / "experiments_report.txt").read_text(encoding="utf-8")
    assert run_all(fast=False) == expected


def test_fast_report_matches_golden(capsys):
    assert main(["report", "--fast"]) == 0
    expected = (GOLDENS / "report_fast.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_fig1_trace_digest():
    system, resident = build_tea_scenario()
    system.run_episode(resident, horizon=600.0)
    lines = "".join(
        json.dumps(
            {"time": e.time, "category": e.category, "payload": e.payload},
            sort_keys=True,
        )
        + "\n"
        for e in system.trace.entries()
    )
    assert _sha256(lines) == FIG1_TRACE_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_fleet_digest(jobs):
    result = run_fleet(FLEET_SPEC, jobs=jobs)
    assert result.metrics.to_dict()["cache"]["hits"] == FLEET_SPEC.homes
    assert _sha256(result.to_json()) == FLEET_SHA256


def test_default_training_cache_key(tea_adl):
    key = training_cache_key(
        tea_adl.name,
        list(tea_adl.canonical_routine().step_ids),
        PlanningConfig(),
        0,
        120,
    )
    assert key == DEFAULT_CACHE_KEY
