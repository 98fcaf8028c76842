"""Differential tests at the seams: each fast path vs its simple spec.

Every production data structure below has one implementation in
``src/``.  Its reference twin lives under ``tests/oracles/`` (or, for
the shard kernel, is the per-item public API), and Hypothesis drives
both through the same random operation sequences: any observable
difference -- a Q-value, an argmax tie-break, a trace, a sample --
fails the test.  The event kernel has no twin: its order is checked
against a ``sorted()`` model in ``tests/test_sim_kernel_backends.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles.qtable import QTable
from oracles.traces import EligibilityTraces
from test_sensing_fast_path import run_script

from repro.core.config import CoReDAConfig
from repro.fleet import FleetSpec, simulate_home, simulate_shard
from repro.fleet.metrics import HomeReport
from repro.planning.store import PolicyCache
from repro.rl.dense import DenseQTable, DenseTraces
from repro.rl.traces import TraceKind
from repro.sensors.pavenet import _MAX_IDLE_SAMPLES, PavenetNode

# ---------------------------------------------------------------------------
# Q-table: DenseQTable vs the dict-backed oracle
# ---------------------------------------------------------------------------

STATES = st.integers(0, 6)
#: repr order ("'a'" < "'b'" ...) disagrees with interning order
#: whenever a later action is written first.
ACTIONS = ("delta", "alpha", "charlie", "bravo")
VALUES = st.sampled_from((-2.5, -1.0, 0.0, 0.5, 1.0, 1.0, 3.25, 1e6))
action_sets = st.permutations(ACTIONS).flatmap(
    lambda perm: st.integers(1, len(perm)).map(lambda k: tuple(perm[:k]))
)

table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), STATES, st.sampled_from(ACTIONS), VALUES),
        st.tuples(st.just("add"), STATES, st.sampled_from(ACTIONS), VALUES),
        st.tuples(st.just("value"), STATES, st.sampled_from(ACTIONS),
                  st.just(None)),
        st.tuples(st.just("best_action"), STATES, action_sets, st.just(None)),
        st.tuples(st.just("max_value"), STATES, action_sets, st.just(None)),
    ),
    max_size=60,
)


def _table_step(table, op, state, action, value):
    if op == "set":
        table.set(state, action, value)
    elif op == "add":
        table.add(state, action, value)
    elif op == "value":
        return table.value(state, action)
    elif op == "best_action":
        return table.best_action(state, action)
    elif op == "max_value":
        return table.max_value(state, action)
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((0.0, 1000.0)), table_ops)
def test_dense_qtable_matches_dict_oracle(initial, ops):
    dense, oracle = DenseQTable(initial), QTable(initial)
    for op, state, action, value in ops:
        assert _table_step(dense, op, state, action, value) == _table_step(
            oracle, op, state, action, value
        )
    assert sorted(map(repr, dense.known_pairs())) == sorted(
        map(repr, oracle.known_pairs())
    )
    assert dense.max_abs_difference(oracle) == 0.0


# ---------------------------------------------------------------------------
# Eligibility traces: DenseTraces vs the dict-backed oracle
# ---------------------------------------------------------------------------

trace_ops = st.lists(
    st.one_of(
        st.tuples(st.just("visit"), STATES, st.sampled_from(ACTIONS)),
        st.tuples(st.just("decay"),
                  st.sampled_from((0.0, 0.05, 0.5, 0.63, 0.9, 1.0)),
                  st.just(None)),
        st.tuples(st.just("apply"), VALUES, st.just(None)),
        st.tuples(st.just("reset"), st.just(None), st.just(None)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(TraceKind)), trace_ops)
def test_dense_traces_match_dict_oracle(kind, ops):
    dense_q, oracle_q = DenseQTable(0.5), QTable(0.5)
    dense = DenseTraces(index=dense_q.index, kind=kind)
    oracle = EligibilityTraces(kind=kind)
    for op, a, b in ops:
        if op == "visit":
            dense.visit(a, b)
            oracle.visit(a, b)
        elif op == "decay":
            dense.decay(a)
            oracle.decay(a)
        elif op == "apply":
            dense.apply_update(dense_q, a)
            oracle.apply_update(oracle_q, a)
        else:
            dense.reset()
            oracle.reset()
        assert list(dense.items()) == list(oracle.items())
        assert len(dense) == len(oracle)
    assert dense_q.max_abs_difference(oracle_q) == 0.0


# ---------------------------------------------------------------------------
# Fleet shards: simulate_shard vs simulate_home mapped over the shard
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_world(tmp_path_factory, tea_definition):
    spec = FleetSpec(homes=12, seed=5, training_episodes=40, seed_classes=2)
    cache = PolicyCache(str(tmp_path_factory.mktemp("oracle-cache")))
    return tea_definition, spec, spec.expand(tea_definition), cache


def _fields(report: HomeReport):
    return [(slot, getattr(report, slot)) for slot in HomeReport.__slots__]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_simulate_shard_equals_simulate_home_map(shard_world, data):
    definition, spec, homes, cache = shard_world
    shard = data.draw(
        st.lists(st.sampled_from(homes), min_size=1, max_size=5, unique=True)
    )
    episodes = data.draw(st.integers(1, 2))
    config = CoReDAConfig(seed=spec.seed)
    batched = simulate_shard(
        definition, shard, config, episodes, spec.training_episodes, cache
    )
    per_home = [
        simulate_home(
            definition, home, config, episodes, spec.training_episodes, cache
        )
        for home in shard
    ]
    assert [_fields(r) for r in batched] == [_fields(r) for r in per_home]


# ---------------------------------------------------------------------------
# Node firmware: the idle-horizon block sampler vs the per-sample loop
# ---------------------------------------------------------------------------

_PERIOD = 0.1


def _grid(start: float, n: int):
    """``n`` sample times from ``start``, by repeated float addition."""
    times = []
    t = start
    for _ in range(n):
        times.append(t)
        t += _PERIOD
    return times


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e5, allow_nan=False), st.integers(1, _MAX_IDLE_SAMPLES))
def test_block_sample_times_equal_repeated_addition(start, n):
    node = PavenetNode.__new__(PavenetNode)
    node._period = _PERIOD
    assert node._block_sample_times(start, n).tolist() == _grid(start, n)


#: One script op: (action, samples since the previous op, offset,
#: duration).  Offset 0.0 lands exactly on a sample timestamp of the
#: running node's grid; 700 samples is an idle gap past the 60 s
#: horizon cap.  An integer duration counts samples, so the use
#: expires at (or within an ulp of) a sample timestamp.
firmware_ops = st.lists(
    st.tuples(
        st.sampled_from(("begin", "begin_for", "end", "stop", "start")),
        st.sampled_from((0, 1, 2, 3, 7, 10, 19, 45, 700)),
        st.sampled_from((0.0, 0.0, 0.037, 0.0999)),
        st.sampled_from((0.25, 2.3, 6.0, 3, 12)),
    ),
    max_size=10,
)


def _firmware_script(ops):
    """``run_script`` ops, timed off the grid of the node's latest
    start so exact sample timestamps stay exact, ending in an off-grid
    stop() that rolls back the block sampler's pre-drawn tail."""
    script = []
    anchor, index, running = 0.0, 0, True
    for action, gap, offset, duration in ops:
        index += gap
        grid = _grid(anchor, index + 13)
        time = grid[index] + offset
        kwargs = {}
        if action == "begin_for":
            action = "begin"
            if isinstance(duration, int):
                duration = grid[index + duration] - time
            kwargs = {"duration": duration}
        script.append((time, action, kwargs))
        if action == "stop":
            running = False
        elif action == "start" and not running:
            anchor, index, running = time, 0, True
    end = (script[-1][0] if script else 0.0) + 7.0537
    return script + [(end, "stop", {})], end + 1.0


@settings(max_examples=150, deadline=None)
@given(firmware_ops, st.sampled_from((0.35, 0.7, 1.0)))
def test_block_sampler_matches_per_sample_oracle(ops, burst_probability):
    script, until = _firmware_script(ops)
    world = {"source_seed": 4, "burst_probability": burst_probability}
    production = run_script(False, script, until, **world)
    oracle = run_script(True, script, until, **world)
    assert production == oracle
