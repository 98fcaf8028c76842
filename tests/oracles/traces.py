"""Test oracle: the dict-backed eligibility traces.

The plain-dict spec that :class:`repro.rl.dense.DenseTraces` is
checked against (``tests/test_oracles.py``): the simpler statement of
the same semantics.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Tuple

from repro.rl.traces import TraceKind

__all__ = ["EligibilityTraces"]

State = Hashable
Action = Hashable


class EligibilityTraces:
    """A sparse trace vector over (state, action) pairs."""

    def __init__(
        self, kind: TraceKind = TraceKind.REPLACING, cutoff: float = 1e-4
    ) -> None:
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.kind = kind
        self.cutoff = cutoff
        self._traces: Dict[Tuple[State, Action], float] = {}

    def visit(self, state: State, action: Action) -> None:
        """Mark (s, a) as just visited."""
        key = (state, action)
        if self.kind is TraceKind.ACCUMULATING:
            self._traces[key] = self._traces.get(key, 0.0) + 1.0
        else:
            self._traces[key] = 1.0

    def decay(self, factor: float) -> None:
        """Multiply every trace by ``factor`` (= γλ), dropping tiny ones."""
        if factor == 0.0:
            self._traces.clear()
            return
        dead = []
        for key in self._traces:
            self._traces[key] *= factor
            if self._traces[key] < self.cutoff:
                dead.append(key)
        for key in dead:
            del self._traces[key]

    def get(self, state: State, action: Action) -> float:
        """Current trace of (s, a) (0.0 if inactive)."""
        return self._traces.get((state, action), 0.0)

    def reset(self) -> None:
        """Clear all traces (start of episode, or Watkins cut)."""
        self._traces.clear()

    def items(self) -> Iterator[Tuple[Tuple[State, Action], float]]:
        """Iterate over active (key, trace) pairs.

        Iterates a snapshot, so callers may mutate the Q-table (but
        not the traces) while looping.
        """
        return iter(list(self._traces.items()))

    def apply_update(self, q, coef: float) -> None:
        """``Q[pair] += coef * e[pair]`` for every active pair.

        The TD(λ) sweep, done here so the hot path iterates the live
        dict directly -- ``q.add`` never mutates the traces, so the
        defensive snapshot :meth:`items` takes is pure overhead.
        ``coef`` is the precomputed ``α·δ`` so the multiplication
        order matches the historical ``α·δ·e`` exactly.
        """
        for (state, action), eligibility in self._traces.items():
            q.add(state, action, coef * eligibility)

    def __len__(self) -> int:
        return len(self._traces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EligibilityTraces({self.kind.value}, active={len(self._traces)})"
