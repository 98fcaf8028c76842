"""The event queue's order, checked against a ``sorted()`` model.

The kernel is one ``heapq`` of ``(time, seq, event)`` tuples, and its
whole contract is one sentence: the events that fire are exactly the
events scheduled and not cancelled before they fired, in ``(time,
seq)`` order, up to the horizon.  A Hypothesis property drives random
schedule / cancel / ``run_until`` scripts -- same-instant bursts,
pushes at ``now`` from inside a dispatching callback, cancels of
events that already fired, and a last horizon that leaves events
pending -- and compares the fired sequence with that sentence; long
seeded scripts do the same.  The edge-case classes below pin the
individual corners, on the bare kernel and on the booking-checked one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sim_kernel import CalendarCheckedSimulator, make_sim

import repro.core.system as system
from repro.core.config_io import config_from_dict
from repro.core.errors import ConfigurationError
from repro.evalx.scenario import run_tea_scenario
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.random import seeded_generator

#: ``heap`` runs the bare kernel; ``calendar`` runs it with every
#: dispatch checked against its booking (see ``test_sim_kernel``).
VARIANTS = ["heap", "calendar"]

#: Delays relative to the clock: repeats and 0.0 force same-instant
#: ties (0.0 from a callback pushes at ``now`` mid-dispatch).
DELAYS = (0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0)

scripts = st.lists(
    st.one_of(
        # One event; its callback may schedule one child.
        st.tuples(
            st.just("schedule"),
            st.sampled_from(DELAYS),
            st.one_of(st.none(), st.sampled_from(DELAYS)),
        ),
        # Several events at the same instant.
        st.tuples(st.just("burst"), st.sampled_from(DELAYS), st.integers(2, 6)),
        # Any event ever scheduled, fired or not.
        st.tuples(st.just("cancel"), st.integers(0, 1 << 16), st.none()),
        st.tuples(
            st.just("run"), st.sampled_from((0.0, 0.1, 0.5, 2.0)), st.none()
        ),
    ),
    max_size=60,
)


def run_script(script, last_run):
    """Apply one script to a fresh kernel; return the model's inputs.

    Labels count schedule calls, so sorting ``(time, label)`` pairs
    sorts by the kernel's ``(time, seq)``.
    """
    sim = Simulator()
    scheduled = []  # (time, label)
    handles = []
    fired = []  # (now at fire, label)
    cancelled = set()  # labels cancelled before they fired

    def schedule(delay, child_delay=None):
        label = len(scheduled)
        scheduled.append((sim.now + delay, label))

        def callback():
            fired.append((sim.now, label))
            if child_delay is not None:
                schedule(child_delay)

        handles.append(sim.schedule(delay, callback))

    for op, first, second in script:
        if op == "schedule":
            schedule(first, second)
        elif op == "burst":
            for _ in range(second):
                schedule(first)
        elif op == "cancel" and handles:
            label = first % len(handles)
            if label not in {done for _, done in fired}:
                cancelled.add(label)
            handles[label].cancel()
        elif op == "run":
            sim.run_until(sim.now + first)
    sim.run_until(sim.now + last_run)
    return sim, scheduled, fired, cancelled


def assert_sorted_model(sim, scheduled, fired, cancelled):
    horizon = sim.now
    live = sorted(entry for entry in scheduled if entry[1] not in cancelled)
    assert fired == [entry for entry in live if entry[0] <= horizon]
    remaining = [entry for entry in live if entry[0] > horizon]
    assert sim.pending_count == len(remaining)
    assert sim.peek() == (remaining[0][0] if remaining else None)
    assert sim.events_processed == len(fired)


def generate_script(seed: int, count: int = 400):
    """A seeded script in the Hypothesis strategy's format."""
    rng = seeded_generator(seed)
    script = []
    for _ in range(count):
        roll = float(rng.random())
        delay = DELAYS[int(rng.integers(len(DELAYS)))]
        if roll < 0.45:
            child = DELAYS[int(rng.integers(len(DELAYS)))]
            script.append(("schedule", delay, child if roll < 0.15 else None))
        elif roll < 0.55:
            script.append(("burst", delay, int(rng.integers(2, 7))))
        elif roll < 0.85:
            script.append(("cancel", int(rng.integers(1 << 16)), None))
        else:
            script.append(("run", float(rng.uniform(0.0, 2.0)), None))
    return script


class TestQueueOrder:
    @settings(max_examples=200, deadline=None)
    @given(scripts, st.sampled_from((0.0, 0.3, 2.0, 10.0)))
    def test_fires_uncancelled_events_in_time_seq_order(self, script, last_run):
        assert_sorted_model(*run_script(script, last_run))


class TestRandomizedEquivalence:
    """Long seeded scripts: the fired sequence is identical to the
    ``sorted()`` model's, run after run."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fired_sequences_identical(self, seed):
        result = run_script(generate_script(seed), last_run=1.0)
        assert_sorted_model(*result)
        fired = result[2]
        assert len(fired) > 100  # the script actually fires things
        assert run_script(generate_script(seed), last_run=1.0)[2] == fired


class TestSameInstantSemantics:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_push_during_drain_fires_after_earlier_ties(self, variant):
        sim = make_sim(variant)
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("child"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "child"]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_delay_chain_advances_within_one_instant(self, variant):
        sim = make_sim(variant)
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(0.0, lambda: chain(depth + 1))

        sim.schedule(2.0, lambda: chain(0))
        sim.run()
        assert fired == list(range(6))
        assert sim.now == 2.0


class TestCancellationAccounting:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pending_count_excludes_cancelled(self, variant):
        sim = make_sim(variant)
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        for event in events[::2]:
            event.cancel()
        assert sim.pending_count == 5
        events[1].cancel()
        assert sim.pending_count == 4
        sim.run()
        assert sim.pending_count == 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cancel_storm_in_one_bucket(self, variant):
        # A thousand events in one ten-second span, nine in ten
        # cancelled: the survivors keep their relative order.
        sim = make_sim(variant)
        fired = []
        events = [
            sim.schedule(1.0 + i * 0.01, (lambda i=i: fired.append(i)))
            for i in range(1000)
        ]
        for i, event in enumerate(events):
            if i % 10 != 0:
                event.cancel()
        assert sim.pending_count == 100
        sim.run()
        assert fired == list(range(0, 1000, 10))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cancel_after_fire_is_harmless(self, variant):
        sim = make_sim(variant)
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(1.5)
        first.cancel()  # already fired; must not disturb the queue
        sim.run()
        assert fired == ["a", "b"]


class TestEventReuse:
    """The kernel hands out a fresh event object for every schedule."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plain_events_are_not_recycled(self, variant):
        sim = make_sim(variant)
        first = sim.schedule(1.0, lambda: None)
        sim.run()
        second = sim.schedule(1.0, lambda: None)
        assert second is not first


class TestClockEdges:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_negative_start_time(self, variant):
        sim = make_sim(variant, start_time=-3.7)
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.schedule_at(-1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [-3.7 + 0.5, -1.0]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_run_until_across_negative_boundary(self, variant):
        sim = make_sim(variant, start_time=-2.0)
        fired = []
        for delay in (0.5, 1.5, 2.5, 3.5):
            sim.schedule(delay, (lambda d=delay: fired.append(d)))
        sim.run_until(0.0)
        assert fired == [0.5, 1.5]
        sim.run_until(2.0)
        assert fired == [0.5, 1.5, 2.5, 3.5]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_schedule_at_past_raises(self, variant):
        sim = make_sim(variant)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule_at(4.0, lambda: None)
        assert "before current time" in str(excinfo.value)
        assert "4.0" in str(excinfo.value)


class TestBackendSelection:
    """The queue is not selectable: one kernel, one configuration."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError):
            Simulator(backend="heap")

    def test_sim_config_validates(self):
        # Configurations saved while the kernel backend was a setting
        # carry a "sim" section; loading one must fail naming it.
        with pytest.raises(ConfigurationError, match="'sim'"):
            config_from_dict(
                {"sim": {"kernel_backend": "heap", "bucket_width": 0.5}}
            )


class TestScenarioBackendEquivalence:
    """The full Figure 1 scenario on the bare and the booking-checked
    kernel: every dispatch honours its booking, and the timelines are
    identical."""

    def test_identical_timelines(self, monkeypatch):
        bare = run_tea_scenario()
        monkeypatch.setattr(system, "Simulator", CalendarCheckedSimulator)
        checked = run_tea_scenario()
        assert checked.timeline == bare.timeline
        assert checked.completed == bare.completed
        for field in (
            "wrong_tool_prompt_time",
            "first_praise_time",
            "stall_prompt_time",
            "second_praise_time",
        ):
            assert getattr(checked, field) == getattr(bare, field), field
