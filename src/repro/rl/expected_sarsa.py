"""Expected SARSA [van Seijen et al. 2009].

On-policy like SARSA but bootstraps from the *expectation* of the
next action under the behaviour policy rather than the sampled next
action, cutting update variance.  With an ε-greedy policy:

    target = r + γ [ (1-ε) max_a Q(s',a) + ε · mean_a Q(s',a) ]

Completes the RL substrate's on-policy family; at ε → 0 it coincides
with Q-learning, which the tests pin down.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.rl.learner import TabularLearner
from repro.rl.policies import EpsilonGreedyPolicy

__all__ = ["ExpectedSarsaLearner"]

State = Hashable
Action = Hashable


class ExpectedSarsaLearner(TabularLearner):
    """Tabular Expected SARSA with an ε-greedy behaviour policy."""

    def __init__(
        self,
        learning_rate=0.2,
        discount: float = 0.9,
        epsilon: float = 0.2,
        initial_q: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, discount, None, initial_q)
        # The policy validates ε (must lie in [0, 1]).
        self.policy = EpsilonGreedyPolicy(epsilon)
        self.epsilon = float(epsilon)

    def expected_value(self, state: State, actions: Sequence[Action]) -> float:
        """E_π[Q(state, ·)] under the ε-greedy policy.

        The mean is taken with Python's left-to-right ``sum`` --
        NumPy's pairwise summation rounds differently from the
        dict-backed reference the training digests were recorded on.
        """
        if not actions:
            raise ValueError(f"no actions available in state {state!r}")
        values = self.q.action_values(state, actions)
        greedy = max(values)
        uniform = sum(values) / len(values)
        return (1.0 - self.epsilon) * greedy + self.epsilon * uniform

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        exploratory: bool = False,
    ) -> float:
        """One Expected SARSA update; returns the TD error."""
        alpha = self._alpha()
        if done:
            target = reward
        else:
            target = reward + self.discount * self.expected_value(
                next_state, next_actions
            )
        delta = target - self.q.value(state, action)
        self.q.add(state, action, alpha * delta)
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExpectedSarsaLearner(epsilon={self.epsilon}, updates={self.updates})"
