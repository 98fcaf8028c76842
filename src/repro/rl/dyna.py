"""Dyna-Q: the paper's "fast learning" future-work item, implemented.

The paper (section 4, challenge 2) notes CoReDA "spends a relatively
long time to learn the routine" and asks for a faster algorithm.
Dyna-Q [Sutton 1990] learns a tabular world model from the same
transitions and performs extra *planning* updates against the model
after every real step, multiplying the value of each observed episode.
The ablation bench shows the reduction in iterations-to-converge.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.rl.learner import TabularLearner
from repro.rl.policies import Policy

__all__ = ["DynaQLearner"]

State = Hashable
Action = Hashable


class DynaQLearner(TabularLearner):
    """Tabular Dyna-Q with a deterministic-latest world model.

    The model stores, per (state, action), the most recent observed
    outcome -- adequate for the near-deterministic routine MDPs of
    ADL guidance and intentionally simple.  ``planning_steps`` model
    sweeps run after each real update over uniformly sampled known
    pairs.
    """

    def __init__(
        self,
        learning_rate=0.2,
        discount: float = 0.9,
        planning_steps: int = 10,
        policy: Optional[Policy] = None,
        initial_q: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, discount, policy, initial_q)
        if planning_steps < 0:
            raise ValueError("planning_steps must be >= 0")
        self.planning_steps = int(planning_steps)
        # The model keeps each known pair's latest outcome as an
        # interned record (DenseQTable.transition_record) in a list,
        # so the planning sweep samples by position and updates with
        # no hashing at all; ``_model`` maps an interned
        # (state_id, action_id) key to its position for deduplication.
        self._model: Dict[Tuple[int, int], int] = {}
        self._outcomes: List[list] = []
        self.planning_updates = 0

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        rng: Optional[np.random.Generator] = None,
        exploratory: bool = False,
    ) -> float:
        """One real Q-learning update + ``planning_steps`` model sweeps.

        ``exploratory`` is accepted (and ignored) so Dyna-Q is a
        drop-in replacement for the TD(λ) learner in the trainer.
        Returns the real-step TD error.
        """
        # The step counter advances once per observed transition, so
        # the schedule value is shared by the real update and every
        # planning update of this transition (schedules are pure
        # functions of the step).
        alpha = self._alpha()
        q = self.q
        record = q.transition_record(
            state, action, reward, next_state, next_actions, done
        )
        delta = q.q_learning_updates((record,), alpha, self.discount)
        key = (record[0], record[1])
        pos = self._model.get(key)
        if pos is None:
            self._model[key] = len(self._outcomes)
            self._outcomes.append(record)
        else:
            self._outcomes[pos] = record
        if rng is not None and self.planning_steps > 0:
            # One batched draw consumes the generator's bit stream
            # exactly like the equivalent sequence of scalar draws
            # (pinned down in tests), so the planning sample sequence
            # is unchanged -- the updates never touch the generator.
            outcomes = self._outcomes
            picks = rng.integers(len(outcomes), size=self.planning_steps)
            q.q_learning_updates(
                [outcomes[i] for i in picks.tolist()], alpha, self.discount
            )
            self.planning_updates += self.planning_steps
        self.updates += 1
        return delta

    @property
    def model_size(self) -> int:
        """Number of (state, action) pairs in the learned model."""
        return len(self._model)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynaQLearner(planning_steps={self.planning_steps}, "
            f"model={len(self._model)}, updates={self.updates})"
        )
