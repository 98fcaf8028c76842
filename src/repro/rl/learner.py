"""The shared scaffolding of the tabular learners.

Every learner in :mod:`repro.rl` is a :class:`TabularLearner`: it owns
one :class:`~repro.rl.dense.DenseQTable` (``q``), a learning-rate
:class:`~repro.rl.schedules.Schedule`, a behaviour policy and the
``updates``/``episodes`` counters, and answers the trainer's
``begin_episode``/``select_action``/``greedy_action(s)`` calls the same
way.  Subclasses implement ``observe`` and read and write Q only
through the public :class:`DenseQTable`/:class:`DenseTraces` methods --
:mod:`repro.rl.dense` is the one module that touches the buffers.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.rl.dense import DenseQTable, DenseTraces
from repro.rl.policies import EpsilonGreedyPolicy, Policy
from repro.rl.schedules import ConstantSchedule, Schedule
from repro.rl.traces import TraceKind

__all__ = ["TabularLearner", "TraceLearner"]

State = Hashable
Action = Hashable


class TabularLearner:
    """Base of the tabular learners: table, schedule, policy, counters."""

    def __init__(
        self,
        learning_rate=0.2,
        discount: float = 0.9,
        policy: Optional[Policy] = None,
        initial_q: float = 0.0,
    ) -> None:
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if isinstance(learning_rate, Schedule):
            self.learning_rate_schedule: Schedule = learning_rate
        else:
            self.learning_rate_schedule = ConstantSchedule(float(learning_rate))
        # Constant learning rates (the common case) skip the schedule
        # call on every transition.
        self._alpha_const = (
            self.learning_rate_schedule.constant
            if type(self.learning_rate_schedule) is ConstantSchedule
            else None
        )
        self.discount = float(discount)
        self.policy: Policy = policy if policy is not None else EpsilonGreedyPolicy(0.2)
        self.q = DenseQTable(initial_q)
        self.updates = 0
        self.episodes = 0

    def _alpha(self) -> float:
        """The learning rate for the current update."""
        alpha = self._alpha_const
        if alpha is None:
            alpha = self.learning_rate_schedule.value(self.updates)
        return alpha

    def begin_episode(self) -> None:
        """Episode boundary."""
        self.episodes += 1

    def select_action(
        self,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        """Behaviour-policy action for ``state``; see Policy.select."""
        return self.policy.select(self.q, state, actions, rng, step=step)

    def greedy_action(self, state: State, actions: Sequence[Action]) -> Action:
        """The current greedy (target-policy) action."""
        return self.q.best_action(state, actions)

    def greedy_actions(
        self, states: Sequence[State], actions: Sequence[Action]
    ) -> Sequence[Action]:
        """Greedy action per state (one batched argmax)."""
        return self.q.best_actions(states, actions)


class TraceLearner(TabularLearner):
    """A :class:`TabularLearner` with eligibility traces (the λ family)."""

    def __init__(
        self,
        learning_rate=0.2,
        discount: float = 0.9,
        trace_decay: float = 0.7,
        policy: Optional[Policy] = None,
        trace_kind: TraceKind = TraceKind.REPLACING,
        initial_q: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, discount, policy, initial_q)
        if not 0.0 <= trace_decay <= 1.0:
            raise ValueError("trace_decay must be in [0, 1]")
        self.trace_decay = float(trace_decay)
        # γλ, computed once -- the per-transition trace decay factor.
        self._glambda = self.discount * self.trace_decay
        # One index for table and traces, so apply_update writes the
        # traced pairs straight into the table's buffer.
        self.traces = DenseTraces(index=self.q.index, kind=trace_kind)

    def begin_episode(self) -> None:
        """Reset traces at an episode boundary."""
        self.traces.reset()
        super().begin_episode()
