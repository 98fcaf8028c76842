"""Equivalence smoke tests: idle-horizon block sampler vs per-sample oracle.

The node firmware's block sampler must be *byte-identical* to the
per-sample loop of ``tests/oracles/firmware.py`` -- same trace events
at the same times, same frames, same EEPROM contents -- for any
resident behaviour, including regime changes that land in the middle
of a pre-drawn block.  These tests replay identical worlds under both
firmwares and compare the full observable streams.
"""

import numpy as np
import pytest
from oracles.firmware import per_sample_firmware

from repro.core.adl import SensorType, Tool
from repro.core.config import CoReDAConfig, RadioConfig, SensingConfig
from repro.evalx.parallel import run_section
from repro.evalx.scenario import build_tea_scenario, run_tea_scenario
from repro.sensors.pavenet import PavenetNode
from repro.sensors.radio import BASE_STATION_UID, RadioMedium
from repro.sensors.signals import SignalProfile, SignalSource
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder


def build_node(source_seed=1, burst_probability=0.7):
    """One complete node world with a deterministic seed."""
    sim = Simulator()
    trace = TraceRecorder()
    radio = RadioMedium(
        sim, RadioConfig(loss_probability=0.05), np.random.default_rng(0)
    )
    source = SignalSource(
        SignalProfile(burst_probability=burst_probability),
        np.random.default_rng(source_seed),
    )
    node = PavenetNode(
        sim=sim,
        tool=Tool(7, "cup", SensorType.ACCELEROMETER),
        source=source,
        radio=radio,
        config=SensingConfig(),
        trace=trace,
    )
    received = []
    radio.attach(
        BASE_STATION_UID,
        lambda frame: received.append(
            (sim.now, frame.src_uid, frame.kind, frame.sequence)
        ),
    )
    return sim, node, source, trace, received


def run_script(oracle, script, until=20.0, **world):
    """Run one node under ``script``: (time, action, kwargs) tuples.

    ``oracle`` selects the per-sample firmware instead of the block
    sampler; ``world`` goes to :func:`build_node`.
    """
    if oracle:
        with per_sample_firmware():
            return run_script(False, script, until, **world)
    sim, node, source, trace, received = build_node(**world)
    node.start()
    for time, action, kwargs in script:
        if action == "begin":
            sim.schedule_at(
                time, (lambda t=time, kw=kwargs: source.begin_use(t, **kw))
            )
        elif action == "end":
            sim.schedule_at(time, source.end_use)
        elif action == "stop":
            sim.schedule_at(time, node.stop)
        elif action == "start":
            sim.schedule_at(time, node.start)
    sim.run_until(until)
    return {
        "trace": trace.entries(),
        "received": received,
        "eeprom": node.eeprom.records(),
        "reports": node.usage_reports,
        # The block sampler pre-draws ahead of the clock, so these two
        # match the oracle only once a final stop() has rolled it back.
        "detector": node.detector.snapshot(),
        "rng": source._rng.bit_generator.state,
    }


def assert_streams_equal(script, until=20.0, **world):
    scalar = run_script(True, script, until, **world)
    batched = run_script(False, script, until, **world)
    assert batched["trace"] == scalar["trace"]
    assert batched["received"] == scalar["received"]
    assert batched["eeprom"] == scalar["eeprom"]
    assert batched["reports"] == scalar["reports"]


class TestNodeEquivalence:
    def test_idle_node(self):
        assert_streams_equal([])

    def test_simple_use_with_finite_duration(self):
        # Finite durations are known at block start: the block sampler
        # truncates at the expiry, no invalidation needed.
        assert_streams_equal([(0.0, "begin", {"duration": 5.0})])

    def test_duration_expiring_mid_block(self):
        # Expiry at t=1.23 falls inside the second 1 s block.
        assert_streams_equal([(0.73, "begin", {"duration": 0.5})])

    def test_end_use_invalidates_block_tail(self):
        # end_use at an off-grid time mid-block: the pre-drawn active
        # tail is stale and must be re-drawn as idle samples.
        assert_streams_equal(
            [(0.0, "begin", {}), (2.37, "end", {})]
        )

    def test_begin_use_invalidates_block_tail(self):
        # begin_use mid-block: the pre-drawn idle tail becomes active.
        assert_streams_equal(
            [(1.62, "begin", {}), (6.91, "end", {})]
        )

    def test_rapid_regime_flapping(self):
        # Multiple invalidations, some within the same block.
        assert_streams_equal(
            [
                (0.31, "begin", {}),
                (0.58, "end", {}),
                (0.84, "begin", {"duration": 1.7}),
                (3.05, "begin", {"duration": 4.0}),
                (5.5, "end", {}),
                (11.02, "begin", {}),
                (11.96, "end", {}),
            ]
        )

    def test_stop_mid_block_cancels_pending_reports(self):
        assert_streams_equal(
            [(0.0, "begin", {}), (3.14, "stop", {})]
        )

    def test_restart_after_stop_mid_block(self):
        # stop() lands inside a pre-drawn block: the tail must be
        # rolled back, or the restarted node continues from the wrong
        # RNG position and detector window.
        script = [
            (0.3, "begin", {"duration": 2.0}),
            (2.45, "stop", {}),
            (3.0, "start", {}),
            (3.0, "begin", {"duration": 1.5}),
        ]
        for seed in range(40):
            assert_streams_equal(
                script, until=8.0, source_seed=seed, burst_probability=0.35
            )

    def test_batch_sizes_beyond_default(self):
        # Idle gaps longer than the 60 s horizon cap: the idle block
        # grows 1 s -> 60 s, and each regime change cuts a long block
        # short and resets it.
        assert_streams_equal(
            [
                (0.42, "begin", {"duration": 3.3}),
                (97.7, "begin", {}),
                (99.33, "end", {}),
                (173.05, "begin", {"duration": 2.0}),
            ],
            until=400.0,
        )


class TestScenarioEquivalence:
    """One full Figure 1 scenario, per-sample oracle vs block sampler,
    identical trace event lists."""

    @pytest.fixture(scope="class")
    def results(self):
        with per_sample_firmware():
            scalar = run_tea_scenario()
        batched = run_tea_scenario()
        return scalar, batched

    def test_identical_timelines(self, results):
        scalar, batched = results
        assert batched.timeline == scalar.timeline

    def test_identical_anchors(self, results):
        scalar, batched = results
        for field in (
            "completed",
            "wrong_tool_prompt_time",
            "first_praise_time",
            "stall_prompt_time",
            "second_praise_time",
            "wrong_tool_methods",
            "stall_methods",
        ):
            assert getattr(batched, field) == getattr(scalar, field), field

    def test_default_config_uses_fast_path(self):
        # The production node samples in blocks: the same episode
        # takes far fewer kernel events than the per-sample oracle.
        def events():
            system, resident = build_tea_scenario()
            system.run_episode(resident, horizon=600.0)
            return system.sim.events_processed

        with per_sample_firmware():
            scalar = events()
        assert events() * 5 < scalar


class TestExtractPrecisionEquivalence:
    def test_table3_cell_identical(self):
        from repro.adls.tea_making import tea_making_definition
        from repro.evalx.extract_precision import plan_extract_precision

        definition = tea_making_definition()

        def rows():
            result = run_section(
                plan_extract_precision(
                    [definition],
                    samples_per_step=4,
                    config=CoReDAConfig(),
                    seed=0,
                )
            )
            return [
                (row.step_name, row.detections, row.trials, row.precision)
                for row in result.rows
            ]

        with per_sample_firmware():
            scalar = rows()
        assert rows() == scalar
