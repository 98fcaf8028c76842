"""The ADL / step / tool data model.

Terminology follows the paper exactly:

* A **tool** is a physical object with one PAVENET node attached; the
  node's ``uid`` doubles as the *ToolID*.
* An **ADL step** is identified by the *StepID*, "the ID of the tool
  which is mainly used in this step".  StepID ``0`` is reserved for
  "nothing is done for a long time" (idle).
* An **ADL** is an ordered canonical sequence of steps; a user's
  personal **routine** may order the steps differently (that is the
  whole point of learning per-user policies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import RoutineError, UnknownStepError, UnknownToolError

__all__ = [
    "IDLE_STEP_ID",
    "SensorType",
    "ReminderLevel",
    "Tool",
    "ADLStep",
    "ADL",
    "Routine",
]

#: StepID reserved by the paper for "nothing is done for a long time".
IDLE_STEP_ID = 0


class SensorType(enum.Enum):
    """Sensor modalities available on a PAVENET node (paper Table 1)."""

    ACCELEROMETER = "3-axis accelerometer"
    PRESSURE = "pressure"
    BRIGHTNESS = "brightness"
    TEMPERATURE = "temperature"
    MOTION = "motion"


class ReminderLevel(enum.Enum):
    """The two prompt intensities of the reminding subsystem.

    ``MINIMAL`` gives a short message and fewer LED blinks; the reward
    function prefers it (100 vs 50) so that users "exercise their
    brain instead of depending on the system".
    """

    MINIMAL = "minimal"
    SPECIFIC = "specific"

    # Members are singletons compared by identity, so the C-level
    # identity hash agrees with ``==``; ``Enum.__hash__`` is a Python
    # call on every hash of a PromptAction (each trace visit in
    # training).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Tool:
    """A physical object instrumented with one PAVENET node.

    ``tool_id`` is the PAVENET uid and must be a positive integer
    (StepID 0 is reserved for idle).
    """

    tool_id: int
    name: str
    sensor: SensorType
    picture: str = ""

    def __post_init__(self) -> None:
        if self.tool_id <= 0:
            raise ValueError(
                f"tool_id must be positive (0 is the idle StepID); "
                f"got {self.tool_id} for {self.name!r}"
            )

    def __str__(self) -> str:
        return f"{self.name}#{self.tool_id}"


@dataclass(frozen=True)
class ADLStep:
    """One step of an ADL, bound to the tool mainly used in it.

    ``typical_duration`` / ``duration_sd`` parameterize the total
    dwell in the step (until the next tool is picked up);
    ``handling_duration`` is the portion actually spent manipulating
    the tool, i.e. the window in which the sensor sees activity.  The
    sensing evaluation shows (as in the paper's Table 3) that *short*
    handling windows are the hardest to detect.
    """

    name: str
    tool: Tool
    typical_duration: float = 8.0
    duration_sd: float = 1.5
    handling_duration: float = 4.0

    @property
    def step_id(self) -> int:
        """StepID == ToolID of the tool mainly used in this step."""
        return self.tool.tool_id

    def __str__(self) -> str:
        return f"{self.name} (step {self.step_id})"


class ADL:
    """An Activity of Daily Living: named, with an ordered canonical routine.

    The canonical step order is the population-typical way to perform
    the activity (e.g. the four tea-making steps of the paper's
    Figure 1).  Individual users may deviate; see :class:`Routine`.
    """

    def __init__(self, name: str, steps: Sequence[ADLStep]) -> None:
        if not steps:
            raise RoutineError(f"ADL {name!r} must have at least one step")
        self.name = name
        self.steps: Tuple[ADLStep, ...] = tuple(steps)
        self._by_step_id: Dict[int, ADLStep] = {}
        self._by_tool_name: Dict[str, ADLStep] = {}
        for step in self.steps:
            if step.step_id in self._by_step_id:
                raise RoutineError(
                    f"ADL {name!r}: duplicate StepID {step.step_id} "
                    f"({step.name!r} vs {self._by_step_id[step.step_id].name!r})"
                )
            self._by_step_id[step.step_id] = step
            self._by_tool_name[step.tool.name] = step

    @property
    def tools(self) -> List[Tool]:
        """Tools used by this ADL, in canonical step order."""
        return [step.tool for step in self.steps]

    @property
    def step_ids(self) -> List[int]:
        """StepIDs in canonical order."""
        return [step.step_id for step in self.steps]

    @property
    def terminal_step_id(self) -> int:
        """StepID of the final step of the canonical routine."""
        return self.steps[-1].step_id

    def step(self, step_id: int) -> ADLStep:
        """Look a step up by StepID."""
        try:
            return self._by_step_id[step_id]
        except KeyError:
            raise UnknownStepError(
                f"ADL {self.name!r} has no step with id {step_id}"
            ) from None

    def tool(self, tool_id: int) -> Tool:
        """Look a tool up by ToolID (== StepID)."""
        return self.step(tool_id).tool

    def tool_by_name(self, name: str) -> Tool:
        """Look a tool up by its human-readable name."""
        try:
            return self._by_tool_name[name].tool
        except KeyError:
            raise UnknownToolError(
                f"ADL {self.name!r} has no tool named {name!r}"
            ) from None

    def has_step(self, step_id: int) -> bool:
        """True if ``step_id`` belongs to this ADL."""
        return step_id in self._by_step_id

    def canonical_routine(self) -> "Routine":
        """The population-typical routine (canonical step order)."""
        return Routine(self, self.step_ids)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        names = ", ".join(s.name for s in self.steps)
        return f"ADL({self.name!r}: {names})"


class Routine:
    """One user's personal way through an ADL: an ordered StepID list.

    A routine must visit steps of its ADL only, must not repeat a
    step, and must be non-empty.  (Multi-routine users are modelled as
    *sets* of Routine objects; see ``repro.planning.multi_routine``.)
    """

    def __init__(self, adl: ADL, step_ids: Iterable[int]) -> None:
        self.adl = adl
        self.step_ids: Tuple[int, ...] = tuple(step_ids)
        if not self.step_ids:
            raise RoutineError(f"routine for {adl.name!r} is empty")
        seen = set()
        for sid in self.step_ids:
            if not adl.has_step(sid):
                raise RoutineError(
                    f"routine for {adl.name!r} uses unknown StepID {sid}"
                )
            if sid in seen:
                raise RoutineError(
                    f"routine for {adl.name!r} repeats StepID {sid}"
                )
            seen.add(sid)

    @property
    def terminal_step_id(self) -> int:
        """The StepID that completes this routine."""
        return self.step_ids[-1]

    @property
    def first_step_id(self) -> int:
        """The StepID that starts this routine."""
        return self.step_ids[0]

    def next_step_id(self, step_id: int) -> Optional[int]:
        """StepID after ``step_id``, or ``None`` if terminal.

        Raises :class:`UnknownStepError` if ``step_id`` is not part of
        the routine at all.
        """
        try:
            index = self.step_ids.index(step_id)
        except ValueError:
            raise UnknownStepError(
                f"StepID {step_id} is not part of this routine "
                f"({self.step_ids})"
            ) from None
        if index + 1 >= len(self.step_ids):
            return None
        return self.step_ids[index + 1]

    def position(self, step_id: int) -> int:
        """0-based position of ``step_id`` within the routine."""
        try:
            return self.step_ids.index(step_id)
        except ValueError:
            raise UnknownStepError(
                f"StepID {step_id} is not part of this routine"
            ) from None

    def contains(self, step_id: int) -> bool:
        """True if the routine visits ``step_id``."""
        return step_id in self.step_ids

    def steps(self) -> List[ADLStep]:
        """The ADLStep objects in routine order."""
        return [self.adl.step(sid) for sid in self.step_ids]

    def __len__(self) -> int:
        return len(self.step_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Routine):
            return NotImplemented
        return self.adl.name == other.adl.name and self.step_ids == other.step_ids

    def __hash__(self) -> int:
        return hash((self.adl.name, self.step_ids))

    def __repr__(self) -> str:
        return f"Routine({self.adl.name!r}, {list(self.step_ids)})"
