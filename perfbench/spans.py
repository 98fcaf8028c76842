"""Outside-in layer tracing: spans and counters around ``repro`` layers.

Nothing under ``src/`` knows it is traced.  :func:`install_layers`
replaces public functions of the layers with recording wrappers, on
the class attribute or in the namespace of the module that calls the
function (a ``from ... import f`` binding is not reached by patching
``f``'s home module), and :meth:`Tracer.uninstall` puts every
original back.

Each wrapped call becomes one span ``(span id, parent span id, name,
start ns, end ns)`` kept in memory; a layer's self time is its spans'
duration minus the part covered by wrapped child spans.  Counters
that live on short-lived objects (kernel events, bus events, radio
attempts, policy-cache hits) are read by a ``__del__`` installed on the class, so each
object is counted once, when it dies; a full garbage collection
forces the last of them out.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "install_layers", "SPAN_LAYERS"]

#: Every span name :func:`install_layers` records, in report order.
SPAN_LAYERS = (
    "sensors.read_block",
    "sensors.detector",
    "sensors.radio",
    "sim.run_until",
    "sensing.on_frame",
    "planning.on_step",
    "reminding.prompt",
    "planning.train",
    "fleet.policy_load",
    "rl.precompute",
    "planning.arena.publish",
    "fleet.shard",
    "fleet.deploy",
    "fleet.merge",
)

Span = Tuple[int, int, str, int, int]
After = Callable[["Tracer", Any, tuple, dict, int, int], None]


class Tracer:
    """Spans and counters of one traced pass, plus the patch undo log."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``(labels, per-cell seconds, wave wall ns, jobs)`` per
        #: :func:`repro.evalx.parallel.run_cells` call of the fleet.
        self.waves: List[Tuple[List[str], List[float], int, int]] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- patching -----------------------------------------------------

    def wrap(
        self, owner: Any, attr: str, name: str, after: Optional[After] = None
    ) -> None:
        """Replace ``owner.attr`` (a function) by a span-recording wrapper."""
        original = _lookup(owner, attr)
        if not callable(original) or isinstance(
            original, (staticmethod, classmethod, property)
        ):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(self, result, args, kwargs, start, end)
            return result

        self._patch(owner, attr, wrapper)

    def count_on_delete(
        self, cls: type, harvest: Callable[[Any], Iterable[Tuple[str, int]]]
    ) -> None:
        """Add ``harvest(obj)``'s counts when an instance of ``cls`` dies."""
        if "__del__" in cls.__dict__:
            raise TypeError(f"{cls.__name__} already defines __del__")
        counts = self.counts

        def __del__(obj):
            for key, value in harvest(obj):
                counts[key] += value

        self._patch(cls, "__del__", __del__)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        if attr in vars(owner):
            previous = vars(owner)[attr]
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------

    def reset(self) -> None:
        """Forget the spans, counts and waves of the previous pass."""
        self.spans.clear()
        self.counts.clear()
        self.waves.clear()

    def layer_times(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, self seconds)}`` over the recorded spans."""
        covered: Dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_ns: Dict[str, int] = defaultdict(int)
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - covered.get(span_id, 0)
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}

    def write(self, handle, run_id: str) -> None:
        """Append this pass's spans, one ``run id sid parent name start
        end`` line each (times in ns of the host's monotonic clock)."""
        for span_id, parent, name, start, end in self.spans:
            handle.write(f"{run_id} {span_id} {parent} {name} {start} {end}\n")


def _lookup(owner: Any, attr: str) -> Any:
    """The raw attribute, searching a class's MRO without binding it."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
    return getattr(owner, attr)


# -- the layer table ----------------------------------------------------


def _count_samples(tracer, result, args, kwargs, start, end) -> None:
    tracer.counts["sensors.samples"] += len(result)


def _count_idle(tracer, result, args, kwargs, start, end) -> None:
    if not result:
        tracer.counts["sensors.detector.idle_blocks"] += 1


def _record_wave(tracer, result, args, kwargs, start, end) -> None:
    cells = args[0] if args else kwargs["cells"]
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    tracer.waves.append(
        ([cell.label for cell in cells], list(result[1]), end - start,
         max(int(jobs), 1))
    )


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced layer of ``repro``; undo with ``uninstall``."""
    import repro.fleet.executor as executor
    import repro.fleet.home as home
    import repro.fleet.shard as shard
    from repro.core.bus import EventBus
    from repro.fleet.metrics import FleetMetrics
    from repro.planning.shm import PolicyArena
    from repro.planning.store import PolicyCache
    from repro.planning.subsystem import PlanningSubsystem
    from repro.planning.trainer import RoutineTrainer
    from repro.reminding.subsystem import RemindingSubsystem
    from repro.rl.batch import ShardPredictor
    from repro.sensing.subsystem import SensingSubsystem
    from repro.sensors.detector import KofNDetector
    from repro.sensors.radio import RadioMedium
    from repro.sensors.signals import SignalSource
    from repro.sim.kernel import Simulator

    wrap = tracer.wrap
    wrap(SignalSource, "read_block", "sensors.read_block", _count_samples)
    wrap(KofNDetector, "observe_block", "sensors.detector", _count_idle)
    wrap(RadioMedium, "transmit", "sensors.radio")
    wrap(Simulator, "run_until", "sim.run_until")
    wrap(SensingSubsystem, "on_frame", "sensing.on_frame")
    wrap(PlanningSubsystem, "on_step", "planning.on_step")
    wrap(RemindingSubsystem, "on_prompt_request", "reminding.prompt")
    wrap(RoutineTrainer, "train", "planning.train")
    wrap(home.HomeRuntime, "predictor", "fleet.policy_load")
    wrap(ShardPredictor, "precompute", "rl.precompute")
    wrap(PolicyArena, "publish", "planning.arena.publish")
    wrap(executor, "simulate_shard", "fleet.shard")
    wrap(shard, "build_home_deployment", "fleet.deploy")
    wrap(home, "build_home_deployment", "fleet.deploy")
    wrap(FleetMetrics, "merge", "fleet.merge")
    wrap(executor, "run_cells", "evalx.run_cells", _record_wave)

    tracer.count_on_delete(
        Simulator, lambda sim: [("sim.events", sim.events_processed)]
    )
    tracer.count_on_delete(
        EventBus, lambda bus: [("core.bus.events", bus.events_published)]
    )
    tracer.count_on_delete(
        PolicyCache,
        lambda cache: [
            ("planning.cache.hits", cache.hits),
            ("planning.cache.misses", cache.misses),
        ],
    )
    tracer.count_on_delete(
        RadioMedium,
        lambda radio: [
            ("sensors.radio.attempts", radio.stats.attempts),
            ("sensors.radio.retransmissions", radio.stats.retransmissions),
        ],
    )
