"""Test oracle: the dict-backed tabular action-value function.

The plain-dict spec that :class:`repro.rl.dense.DenseQTable` is
checked against (``tests/test_oracles.py``): the simpler statement
of the same semantics.

States and actions are arbitrary hashable objects.  Ties in argmax are
broken by the actions' ``repr`` ordering so that, given one seed, every
training run and every greedy readout is bit-for-bit reproducible --
a property the learning-curve experiments rely on.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["QTable"]

State = Hashable
Action = Hashable


class QTable:
    """Sparse mapping ``(state, action) -> value`` with default init."""

    def __init__(self, initial_value: float = 0.0) -> None:
        self.initial_value = float(initial_value)
        self._q: Dict[Tuple[State, Action], float] = {}
        #: Monotone write counter.  Memoized greedy readouts
        #: (:mod:`repro.rl.batch`) revalidate against it, so online
        #: adaptation writing through this table invalidates them.
        self.version = 0

    def value(self, state: State, action: Action) -> float:
        """Q(s, a), defaulting to the initial value for unseen pairs."""
        return self._q.get((state, action), self.initial_value)

    def set(self, state: State, action: Action, value: float) -> None:
        """Assign Q(s, a)."""
        self._q[(state, action)] = float(value)
        self.version += 1

    def add(self, state: State, action: Action, delta: float) -> None:
        """In-place ``Q(s, a) += delta``."""
        key = (state, action)
        self._q[key] = self._q.get(key, self.initial_value) + delta
        self.version += 1

    def best_action(self, state: State, actions: Iterable[Action]) -> Action:
        """Argmax over ``actions``, deterministic under ties.

        Raises ``ValueError`` on an empty action iterable -- a state
        with no actions is a modelling bug we want loud.
        """
        best: Optional[Action] = None
        best_value = float("-inf")
        for action in sorted(actions, key=repr):
            value = self.value(state, action)
            if value > best_value:
                best = action
                best_value = value
        if best is None:
            raise ValueError(f"no actions available in state {state!r}")
        return best

    def best_actions(
        self, states: Sequence[State], actions: Sequence[Action]
    ) -> List[Action]:
        """The greedy action for every state in ``states``.

        The dense backend services this with one batched argmax; here
        it is the plain per-state loop, kept API-compatible so callers
        can probe a whole routine through either backend.
        """
        return [self.best_action(state, actions) for state in states]

    def max_value(self, state: State, actions: Iterable[Action]) -> float:
        """max_a Q(s, a) over the given actions."""
        values = [self.value(state, a) for a in actions]
        if not values:
            raise ValueError(f"no actions available in state {state!r}")
        return max(values)

    def action_values(
        self, state: State, actions: Sequence[Action]
    ) -> List[float]:
        """``[Q(s, a) for a in actions]`` in the given order."""
        return [self.value(state, a) for a in actions]

    def greedy_policy(
        self, states_actions: Dict[State, List[Action]]
    ) -> Dict[State, Action]:
        """The greedy action for every state in ``states_actions``."""
        return {
            state: self.best_action(state, actions)
            for state, actions in states_actions.items()
        }

    def known_pairs(self) -> List[Tuple[State, Action]]:
        """All (state, action) pairs ever written."""
        return list(self._q.keys())

    def copy(self) -> "QTable":
        """An independent snapshot of this table."""
        clone = QTable(self.initial_value)
        clone._q = dict(self._q)
        return clone

    def max_abs_difference(self, other) -> float:
        """sup-norm distance to ``other`` (sparse or dense backend),
        over either table's written support."""
        keys = set(self._q) | set(other.known_pairs())
        if not keys:
            return 0.0
        return max(
            abs(self.value(s, a) - other.value(s, a)) for s, a in keys
        )

    def __len__(self) -> int:
        return len(self._q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QTable(entries={len(self._q)}, init={self.initial_value})"
