"""The benchmark's three workloads, their inputs and their output checks.

All three are closed loops with one caller in one process: the next
run starts when the previous one returned.  See ``NOTES.md`` for why
each was chosen.  ``repro`` is imported lazily so that this module
loads (and the runner can report a missing source tree) without it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import tempfile
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional

__all__ = ["WORKLOADS", "FleetWorkload", "ReportWorkload", "resources"]

#: sha256 of ``FleetResult.to_json()`` for ``fleet-policies`` at seed 0.
FLEET_POLICIES_SEED0_SHA256 = (
    "6ab73813735db2249b63e440c34ac4baba54de932813f26c80c05a07c2ea00b4"
)


def resources() -> FrozenSet[str]:
    """Policy segments, fleet cache dirs and worker processes alive now.

    A run must leave this set as it found it: a segment, a private
    cache directory or a worker process that outlives its run is a
    leak (and a live worker would also skew the timing probe).
    """
    found = {f"pid:{p.pid}" for p in multiprocessing.active_children()}
    shm = Path("/dev/shm")
    if shm.is_dir():
        found.update(f"shm:{p.name}" for p in shm.glob("rpp*"))
    tmp = Path(tempfile.gettempdir())
    found.update(f"tmp:{p.name}" for p in tmp.glob("repro-fleet-cache-*"))
    return frozenset(found)


class FleetWorkload:
    """``run_fleet`` on one :class:`~repro.fleet.spec.FleetSpec` shape."""

    def __init__(self, name: str, jobs: int, golden, **spec) -> None:
        self.name = name
        self.jobs = jobs
        self.golden = golden
        self.spec = dict(adl_name="tea-making", episodes_per_home=1, **spec)

    def inputs(self, seed: int):
        from repro.fleet.spec import FleetSpec

        return FleetSpec(seed=seed, **self.spec)

    def setup(self, seed: int) -> None:
        """What every ``repro fleet`` invocation pays before simulating."""
        from repro.adls.library import default_registry
        from repro.fleet import run_fleet  # noqa: F401 - the import is timed

        spec = self.inputs(seed)
        spec.expand(default_registry().get(spec.adl_name))

    def run(self, spec, timings: Optional[Dict[str, float]] = None,
            jobs: Optional[int] = None):
        from repro.fleet import run_fleet

        return run_fleet(spec, jobs=self.jobs if jobs is None else jobs)

    def output(self, result) -> str:
        return result.to_json()

    def check(self, seed: int, result, root: Path) -> List[str]:
        """Problems with ``result``; empty when every check passes."""
        spec = result.spec
        m = result.metrics.to_dict()
        problems = []
        episodes = spec.homes * spec.episodes_per_home
        if m["episodes"] != episodes or m["completed"] != episodes:
            problems.append(
                f"episodes {m['episodes']}, completed {m['completed']}, "
                f"expected {episodes}"
            )
        if m["reminders"] != m["minimal_reminders"] + m["specific_reminders"]:
            problems.append("reminders != minimal + specific")
        if m["cache"]["hits"] != spec.homes:
            problems.append(f"cache hits {m['cache']['hits']} != homes")
        if m["cache"]["trainings"] != result.distinct_trainings:
            problems.append(
                f"trainings {m['cache']['trainings']} != distinct "
                f"trainings {result.distinct_trainings}"
            )
        if seed == 0:
            problems.extend(self.golden(result, root))
        return problems


def matches_bench_fleet(result, root: Path) -> List[str]:
    """Seed-0 check: the metrics block of the committed BENCH_fleet.json."""
    committed = json.loads(
        (root / "BENCH_fleet.json").read_text(encoding="utf-8")
    )["metrics"]
    if _canonical(result.metrics.to_dict()) != _canonical(committed):
        return ["metrics differ from BENCH_fleet.json"]
    return []


def matches_policies_digest(result, root: Path) -> List[str]:
    """Seed-0 check: the digest recorded for ``fleet-policies``."""
    digest = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()
    if digest != FLEET_POLICIES_SEED0_SHA256:
        return [f"fleet digest {digest} differs from the recorded one"]
    return []


class ReportWorkload:
    """The full ``repro report``: every table, figure and ablation.

    The paper fixes the report's content, so the seed cannot change
    the work; it permutes the order in which the sections run instead
    (seed 0 is :func:`repro.evalx.runner.run_all`'s own order).  Cells
    draw randomness only from their arguments, so the report must be
    byte-identical to ``experiments_report.txt`` at every seed.
    """

    name = "report-full"
    jobs = 1

    def inputs(self, seed: int) -> List[int]:
        from repro.evalx.runner import build_sections
        from repro.sim.random import derive_seed

        order = list(range(len(build_sections(fast=False))))
        if seed:
            order.sort(key=lambda i: derive_seed(seed, f"report.order[{i}]"))
        return order

    def setup(self, seed: int) -> None:
        """What every ``repro report`` invocation pays before running."""
        from repro.evalx.runner import build_sections

        build_sections(fast=False)

    def run(self, order: List[int],
            timings: Optional[Dict[str, float]] = None,
            jobs: Optional[int] = None) -> str:
        from repro.evalx.parallel import run_sections
        from repro.evalx.runner import build_sections

        sections = build_sections(fast=False)
        merged = run_sections(
            [sections[index] for index in order], jobs=1, timings=timings
        )
        blocks: List[List[str]] = [[] for _ in sections]
        for index, section_blocks in zip(order, merged):
            blocks[index] = section_blocks
        return "\n\n".join(b for bs in blocks for b in bs) + "\n"

    def output(self, report: str) -> str:
        return report

    def check(self, seed: int, report: str, root: Path) -> List[str]:
        golden = (root / "experiments_report.txt").read_bytes()
        if report.encode("utf-8") != golden:
            return ["report differs from experiments_report.txt"]
        return []


def _canonical(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


WORKLOADS = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            "fleet-sense", jobs=1, golden=matches_bench_fleet,
            homes=1000, training_episodes=120, seed_classes=4, shard_size=50,
        ),
        FleetWorkload(
            "fleet-policies", jobs=2, golden=matches_policies_digest,
            homes=400, training_episodes=400, seed_classes=64, shard_size=50,
        ),
        ReportWorkload(),
    )
}
