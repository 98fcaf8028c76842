"""Unit tests for parameter schedules."""

import pytest

from repro.rl.schedules import ConstantSchedule, ExponentialDecay


class TestConstant:
    def test_value_everywhere(self):
        schedule = ConstantSchedule(0.3)
        assert schedule.value(0) == 0.3
        assert schedule.value(10_000) == 0.3

    def test_callable(self):
        assert ConstantSchedule(0.5)(3) == 0.5


class TestExponential:
    def test_decay(self):
        schedule = ExponentialDecay(1.0, 0.5)
        assert schedule.value(0) == 1.0
        assert schedule.value(2) == 0.25

    def test_minimum_floor(self):
        schedule = ExponentialDecay(1.0, 0.5, minimum=0.1)
        assert schedule.value(100) == 0.1

    def test_decay_bounds(self):
        with pytest.raises(ValueError):
            ExponentialDecay(1.0, 0.0)
        with pytest.raises(ValueError):
            ExponentialDecay(1.0, 1.5)

    def test_decay_of_one_is_constant(self):
        schedule = ExponentialDecay(0.7, 1.0)
        assert schedule.value(500) == 0.7
