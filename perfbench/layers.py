"""The traced run: per-layer metrics of one workload.

Each iteration runs the workload once untraced and once traced, so
``trace.overhead_frac`` compares neighbours.  A fleet at ``jobs > 1``
forks its shards into workers whose spans never reach this process,
so its iteration adds a traced ``jobs=1`` pass: the layer spans and
counts come from that pass, while the pool metrics keep the per-cell
seconds of the pass at the workload's own ``jobs``.

Counts are deterministic: they must repeat exactly in every
iteration, and every traced output must equal the untraced one byte
for byte; either failure counts as a failed run.
"""

from __future__ import annotations

import gc
import gzip
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.spans import SPAN_LAYERS, Tracer, install_layers

__all__ = ["PER_LAYER", "REPORT_SECTIONS", "traced_metrics"]

#: ``repro.evalx.runner.build_sections`` names, timed by ``run_sections``.
REPORT_SECTIONS = (
    "table1.hardware",
    "table2.sensors",
    "table3.extract",
    "fig4.curve.tooth-brushing",
    "fig4.curve.tea-making",
    "table4.predict",
    "fig1.scenario",
    "baseline.tea-making",
    "burden.tea-making",
    "ablation.lambda.tea-making",
    "ablation.wrong-reward.tea-making",
    "ablation.detector",
    "ablation.dyna.tea-making",
    "ablation.radio.tea-making",
    "ablation.sarsa.tea-making",
    "sensitivity.alpha.tea-making",
    "sensitivity.epsilon.tea-making",
    "extension.multi-routine",
    "extension.adaptation.tea-making",
    "ablation.escalation.tea-making",
)

#: Counts the tracer's hooks accumulate (see ``spans.install_layers``).
COUNTERS = (
    "sensors.samples",
    "sensors.detector.idle_blocks",
    "sensors.radio.attempts",
    "sensors.radio.retransmissions",
    "sim.events",
    "core.bus.events",
    "planning.cache.hits",
    "planning.cache.misses",
)

#: Counts that must repeat exactly between traced runs at one seed.
DETERMINISTIC = tuple(f"{name}.calls" for name in SPAN_LAYERS) + COUNTERS

#: Every per-layer metric: ``(name, unit, better)``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    metric
    for name in SPAN_LAYERS
    for metric in ((f"{name}.calls", "count", "lower"),
                   (f"{name}.self_s", "s", "lower"))
) + (
    ("sensors.samples", "count", "lower"),
    ("sensors.samples_per_block", "count", "higher"),
    ("sensors.detector.idle_frac", "ratio", "lower"),
    ("sensors.radio.retransmit_frac", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("core.bus.events", "count", "lower"),
    ("planning.cache.hits", "count", "higher"),
    ("planning.cache.misses", "count", "lower"),
    ("planning.cache.hit_frac", "ratio", "higher"),
    ("fleet.train_cell_s.sum", "s", "lower"),
    ("fleet.shard_cell_s.p50", "s", "lower"),
    ("fleet.shard_cell_s.max", "s", "lower"),
    ("fleet.pool_efficiency", "ratio", "higher"),
    ("evalx.cells_s", "s", "lower"),
) + tuple(
    (f"evalx.section.{name}_s", "s", "lower") for name in REPORT_SECTIONS
) + (
    ("trace.overhead_frac", "ratio", "lower"),
)


def traced_metrics(bench, seconds: float, work: Path) -> Dict[str, dict]:
    """Alternate untraced and traced runs for ``seconds``; per-layer metrics.

    At least two traced iterations run, so that the repeat check on
    the counts always has something to compare.
    """
    workload = bench.workload
    tracer = Tracer()

    def begin() -> None:
        gc.collect()  # objects of earlier runs must not count here
        tracer.reset()
        install_layers(tracer)

    def end() -> None:
        gc.collect()  # the last objects of this run report their counts
        tracer.uninstall()

    plain: List[float] = []
    traced: List[float] = []
    serial: List[float] = []
    records: List[Dict[str, float]] = []
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"spans-{workload.name}-seed{bench.seed}.txt.gz"
    with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as handle:
        deadline = time.perf_counter() + seconds
        bench.attempt()  # warm-up: checked, not timed
        while len(records) < 2 or time.perf_counter() < deadline:
            run_id = f"{workload.name}.{bench.seed}.{len(records)}"
            reference, wall, _ = bench.attempt()
            plain.append(wall)
            timings: Dict[str, float] = {}
            output, wall, _ = bench.attempt(
                timings=timings, before=begin, after=end
            )
            traced.append(wall)
            outputs = [output]
            waves = list(tracer.waves)
            if workload.jobs > 1:
                tracer.write(handle, f"{run_id}.jobs{workload.jobs}")
                output, wall, _ = bench.attempt(jobs=1, before=begin, after=end)
                serial.append(wall)
                outputs.append(output)
            tracer.write(handle, run_id)
            if None not in (reference, *outputs) and any(
                o != reference for o in outputs
            ):
                bench.fail("traced output differs from the untraced output")
            record = _record(tracer, waves, timings)
            if records and any(
                record[key] != records[0][key] for key in DETERMINISTIC
            ):
                bench.fail("layer counts differ between traced runs")
            records.append(record)
            tracer.reset()
    bench.walls = plain
    bench.samples = {"wall_s": plain, "traced_wall_s": traced}
    if serial:
        bench.samples["traced_jobs1_wall_s"] = serial
    return _metrics(records, statistics.fmean(plain),
                    statistics.fmean(traced))


def _record(tracer: Tracer, waves, timings: Dict[str, float]
            ) -> Dict[str, float]:
    """Raw per-layer numbers of one traced iteration."""
    record: Dict[str, float] = {}
    layers = tracer.layer_times()
    for name in SPAN_LAYERS:
        calls, self_s = layers.get(name, (0, 0.0))
        record[f"{name}.calls"] = calls
        record[f"{name}.self_s"] = self_s
    for key in COUNTERS:
        record[key] = tracer.counts.get(key, 0)
    train = [s for labels, secs, _, _ in waves
             for label, s in zip(labels, secs) if label.startswith("fleet.train")]
    shard = [s for labels, secs, _, _ in waves
             for label, s in zip(labels, secs) if label.startswith("fleet.shard")]
    busy = sum(jobs * wall_ns / 1e9 for _, _, wall_ns, jobs in waves)
    record["fleet.train_cell_s.sum"] = sum(train)
    record["fleet.shard_cell_s.p50"] = statistics.median(shard) if shard else 0.0
    record["fleet.shard_cell_s.max"] = max(shard, default=0.0)
    record["fleet.pool_efficiency"] = (sum(train) + sum(shard)) / busy if busy else 0.0
    record["evalx.cells_s"] = sum(timings.values())
    for name in REPORT_SECTIONS:
        record[f"evalx.section.{name}_s"] = timings.get(name, 0.0)
    return record


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _metrics(records: List[Dict[str, float]], plain_wall: float,
             traced_wall: float) -> Dict[str, dict]:
    """Counts from the last iteration, timings as medians over all."""
    last = records[-1]
    value: Dict[str, float] = {}
    for key in last:
        if key in DETERMINISTIC:
            value[key] = last[key]
        else:
            value[key] = statistics.median(r[key] for r in records)
    value["sensors.samples_per_block"] = _ratio(
        last["sensors.samples"], last["sensors.read_block.calls"]
    )
    value["sensors.detector.idle_frac"] = _ratio(
        last["sensors.detector.idle_blocks"], last["sensors.detector.calls"]
    )
    value["sensors.radio.retransmit_frac"] = _ratio(
        last["sensors.radio.retransmissions"], last["sensors.radio.attempts"]
    )
    value["sim.events_per_s"] = _ratio(last["sim.events"], plain_wall)
    value["planning.cache.hit_frac"] = _ratio(
        last["planning.cache.hits"],
        last["planning.cache.hits"] + last["planning.cache.misses"],
    )
    value["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return {
        name: {"value": value[name], "unit": unit}
        for name, unit, _ in PER_LAYER
    }
