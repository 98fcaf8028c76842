"""CoReDA's benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a source checkout (no install or build step)::

    python3 perfbench/run.py --workload fleet-sense --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds (the first
run is an untimed warm-up) and reports the end-to-end metrics
``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``; the times are
rescaled to a reference host speed (see :func:`probe`).  ``--trace 1``
alternates untraced and traced runs for ``--seconds`` seconds and
reports the per-layer metrics (see ``layers.py``); the spans go to
``.perfbench/spans-<workload>-seed<n>.txt.gz``.  Every run's output is
checked: a run that raises, fails its check or leaks a shared-memory
segment or cache directory counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the raw host timings (sample counts, means, medians,
tail percentiles), the probe times, throughput and the machine
fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Fresh interpreters started per run to time ``setup_s``.
SETUP_REPEATS = 5

#: Seconds :func:`probe` takes at the reference host speed.
PROBE_REF_S = 0.1

#: Seconds :func:`launch_probe` takes at the reference host speed.
LAUNCH_REF_S = 0.05

#: Child program for one ``setup_s`` sample: import and build inputs.
SETUP_CODE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[1] + '/src']; "
    "from perfbench.workloads import WORKLOADS; "
    "WORKLOADS[sys.argv[2]].setup(int(sys.argv[3]))"
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Keep the fleet's private cache directories inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            from perfbench.layers import traced_metrics

            metrics = traced_metrics(bench, args.seconds, WORK)
        else:
            metrics = bench.timed(args.seconds)
    finally:
        _stop_resource_tracker()
    print(json.dumps(bench.details(), sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


class Bench:
    """Runs one workload at one seed and keeps the tallies."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = workload.inputs(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.walls: List[float] = []
        self.samples: Dict[str, List[float]] = {}

    def attempt(self, jobs: Optional[int] = None,
                timings: Optional[Dict[str, float]] = None,
                before=None, after=None):
        """One checked run: ``(output text, wall seconds, cpu seconds)``.

        ``before`` and ``after`` are called right before the clock
        starts and right after it stops (the traced pass installs and
        removes its wrappers there).  Returns ``None`` for the output
        when the run raised.
        """
        from perfbench.workloads import resources

        self.attempted += 1
        held = resources()
        if before is not None:
            before()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            result = self.workload.run(self.inputs, timings=timings, jobs=jobs)
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            result = exc
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        if after is not None:
            after()
        if isinstance(result, Exception):
            self.fail(f"{type(result).__name__}: {result}")
            return None, wall, cpu
        problems = self.workload.check(self.seed, result, ROOT)
        leaked = resources() - held
        if leaked:
            problems.append(f"leaked {sorted(leaked)}")
        if problems:
            self.fail("; ".join(problems))
        return self.workload.output(result), wall, cpu

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def timed(self, seconds: float) -> Dict[str, dict]:
        """End-to-end metrics over ``seconds`` of back-to-back runs.

        The speed of a shared VM drifts by up to 2x over minutes, far
        more than a change worth gating.  So :func:`probe` runs before
        every timed run, and ``wall_s`` and ``cpu_s`` are rescaled by
        ``PROBE_REF_S / mean probe time``: they read as seconds at the
        host speed where the probe takes ``PROBE_REF_S``.  ``setup_s``
        is rescaled the same way by :func:`launch_probe`, which runs
        before every set-up.  Neither probe runs ``repro`` code, so a
        change to the program moves the metrics in full.  ``wall_s``
        and ``cpu_s`` are means over the timed runs, because a median
        jumps between the host's speed states while the mean moves with
        the mix; the raw medians and tails are in :meth:`details`.
        """
        deadline = time.perf_counter() + seconds
        self.attempt()  # warm-up: checked, not timed
        cpus: List[float] = []
        probes: List[float] = []
        while not self.walls or time.perf_counter() < deadline:
            probes.append(probe())
            _, wall, cpu = self.attempt()
            self.walls.append(wall)
            cpus.append(cpu)
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        setups: List[float] = []
        launches: List[float] = []
        for _ in range(SETUP_REPEATS):
            launches.append(launch_probe())
            setups.append(self._setup_once())
        self.samples = {"wall_s": self.walls, "cpu_s": cpus,
                        "setup_s": setups, "probe_s": probes,
                        "launch_probe_s": launches}
        scale = PROBE_REF_S / statistics.fmean(probes)
        setup_scale = LAUNCH_REF_S / statistics.fmean(launches)
        return {
            "wall_s": _metric(statistics.fmean(self.walls) * scale, "s"),
            "cpu_s": _metric(statistics.fmean(cpus) * scale, "s"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(setups) * setup_scale, "s"),
        }

    def _setup_once(self) -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT),
             self.workload.name, str(self.seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - start

    def details(self) -> dict:
        homes = getattr(self.inputs, "homes", None)  # fleets only
        out = {
            "workload": self.workload.name,
            "seed": self.seed,
            "failed_frac": self.failed / max(self.attempted, 1),
            "problems": self.problems,
            "fingerprint": fingerprint(),
            "timings": {
                name: _summary(values) for name, values in self.samples.items()
            },
        }
        if homes and self.walls:
            out["homes_per_s"] = homes / statistics.fmean(self.walls)
        return out


def probe() -> float:
    """Host seconds for a fixed loop of interpreter arithmetic.

    ``repro``'s hot paths are interpreter-bound, and this loop tracks
    the host's speed for them (it follows ``report-full``'s run times
    more closely than a loop of small NumPy calls does) without calling
    ``repro``: its time depends on the host, never on the program.
    """
    start = time.perf_counter()
    total = 0
    for k in range(1_000_000):
        total += k * k % 7
    return time.perf_counter() - start


def launch_probe() -> float:
    """Host seconds to start and stop a bare interpreter.

    A fresh process's start-up (exec, dynamic loading, page faults)
    drifts with the host differently from a compute loop; over 243
    alternations this tracked ``setup_s`` (correlation 0.67) where
    :func:`probe` did not (0.37).
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    """User + system CPU of this process and every child it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _summary(values: List[float]) -> dict:
    """Mean, median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "mean": statistics.fmean(ordered) if n else None,
           "median": statistics.median(ordered) if n else None,
           "tail_pct": None, "tail": None}
    if n > 10:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 1)
        out["tail"] = ordered[n - 11]
    return out


def fingerprint() -> dict:
    """What later runs must match to be compared with this one."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _stop_resource_tracker() -> None:
    """Reap the shared-memory resource tracker the fleet started.

    It would exit by itself once this process closes its pipe; the
    benchmark waits for every process it started instead.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        gc.collect()
        tracker._stop()


if __name__ == "__main__":
    raise SystemExit(main())
