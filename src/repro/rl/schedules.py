"""Parameter schedules (learning rate, exploration).

A schedule maps a step counter to a value.  The paper notes that the
operator "can set the parameters (converging condition, learning rate,
etc.) to make the learning update all the while instead of
converging" -- constant schedules give that always-adapting mode,
decaying schedules give convergence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = [
    "Schedule",
    "ConstantSchedule",
    "ExponentialDecay",
]


class Schedule(ABC):
    """Maps a non-negative step index to a parameter value."""

    @abstractmethod
    def value(self, step: int) -> float:
        """The parameter value at ``step`` (0-based)."""

    def __call__(self, step: int) -> float:
        return self.value(step)


class ConstantSchedule(Schedule):
    """Always the same value."""

    def __init__(self, constant: float) -> None:
        self.constant = float(constant)

    def value(self, step: int) -> float:
        return self.constant


class ExponentialDecay(Schedule):
    """``initial * decay**step``, floored at ``minimum``.

    The last ``(step, value)`` pair is memoised: training evaluates
    the schedule once per transition but the step only advances once
    per episode, so most calls repeat the previous step.  The memo is
    keyed on ``step`` alone -- mutating ``initial``/``decay`` after
    construction is not supported.
    """

    def __init__(self, initial: float, decay: float, minimum: float = 0.0) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.initial = float(initial)
        self.decay = float(decay)
        self.minimum = float(minimum)
        self._memo_step = -1
        self._memo_value = 0.0

    def value(self, step: int) -> float:
        if step == self._memo_step:
            return self._memo_value
        value = max(self.initial * self.decay**step, self.minimum)
        self._memo_step = step
        self._memo_value = value
        return value

