"""SARSA(λ): the on-policy companion to Watkins Q(λ).

Provided for the ablation benches: on short deterministic routines
SARSA(λ) and Q(λ) converge to the same greedy policy, but their
learning curves differ under exploration -- a useful sanity check on
the paper's algorithm choice.

Update, per (s, a, r, s', a'):

    δ = r + γ · Q(s', a') − Q(s, a)      (0 target if s' terminal)
    e(s, a) <- visit;  Q += α δ e;  e <- γλ e
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.rl.learner import TraceLearner

__all__ = ["SarsaLambdaLearner"]

State = Hashable
Action = Hashable


class SarsaLambdaLearner(TraceLearner):
    """Tabular SARSA(λ) with replacing or accumulating traces."""

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_action: Optional[Action],
        done: bool,
    ) -> float:
        """Apply one SARSA(λ) update; returns the TD error δ.

        ``next_action`` is the action the behaviour policy *will* take
        in ``next_state`` (ignored when ``done``).
        """
        if not done and next_action is None:
            raise ValueError("next_action is required for non-terminal updates")
        alpha = self._alpha()
        q = self.q
        if done:
            target = reward
        else:
            target = reward + self.discount * q.value(next_state, next_action)
        delta = target - q.value(state, action)
        traces = self.traces
        traces.visit(state, action)
        traces.apply_update(q, alpha * delta)
        traces.decay(self._glambda)
        if done:
            self.traces.reset()
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SarsaLambdaLearner(lambda={self.trace_decay}, "
            f"gamma={self.discount}, updates={self.updates})"
        )
