"""A discrete hidden Markov model (log-space, numpy).

The paper's related work (Philipose et al., "Inferring activities
from interactions with objects") recognizes ADLs with probabilistic
inference over object-touch observations.  This module provides that
substrate: a classic discrete HMM with Viterbi decoding, numerically
stable in log space.

Used by :mod:`repro.recognition.repair` (fixing sensing dropouts in
training logs).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["DiscreteHMM"]

#: Additive floor before taking logs, so impossible-but-observed
#: events degrade gracefully instead of producing -inf everywhere.
_EPS = 1e-12


class DiscreteHMM:
    """An HMM with ``n_states`` hidden states, ``n_symbols`` outputs.

    Parameters are plain row-stochastic numpy arrays:

    * ``prior``      shape (n_states,)
    * ``transition`` shape (n_states, n_states); ``transition[i, j]``
      = P(next = j | current = i)
    * ``emission``   shape (n_states, n_symbols); ``emission[i, k]``
      = P(observe k | state = i)
    """

    def __init__(
        self,
        prior: np.ndarray,
        transition: np.ndarray,
        emission: np.ndarray,
    ) -> None:
        prior = np.asarray(prior, dtype=float)
        transition = np.asarray(transition, dtype=float)
        emission = np.asarray(emission, dtype=float)
        n_states = prior.shape[0]
        if transition.shape != (n_states, n_states):
            raise ValueError(
                f"transition must be ({n_states}, {n_states}), "
                f"got {transition.shape}"
            )
        if emission.shape[0] != n_states:
            raise ValueError(
                f"emission must have {n_states} rows, got {emission.shape[0]}"
            )
        for name, matrix in (("prior", prior[None, :]),
                             ("transition", transition),
                             ("emission", emission)):
            sums = matrix.sum(axis=1)
            if not np.allclose(sums, 1.0, atol=1e-6):
                raise ValueError(f"{name} rows must sum to 1 (got {sums})")
        self.n_states = n_states
        self.n_symbols = emission.shape[1]
        self._log_prior = np.log(prior + _EPS)
        self._log_transition = np.log(transition + _EPS)
        self._log_emission = np.log(emission + _EPS)

    # ------------------------------------------------------------------
    # inference

    def viterbi(self, observations: Sequence[int]) -> Tuple[List[int], float]:
        """Most likely state path and its log probability."""
        observations = self._check_symbols(observations)
        if observations is None:
            return [], 0.0
        n = observations.shape[0]
        emission = self._log_emission[:, observations]
        delta = np.empty((n, self.n_states))
        backpointer = np.zeros((n, self.n_states), dtype=int)
        delta[0] = self._log_prior + emission[:, 0]
        for t in range(1, n):
            scores = delta[t - 1][:, None] + self._log_transition
            backpointer[t] = scores.argmax(axis=0)
            delta[t] = scores.max(axis=0) + emission[:, t]
        path = [int(delta[-1].argmax())]
        for t in range(n - 1, 0, -1):
            path.append(int(backpointer[t][path[-1]]))
        path.reverse()
        return path, float(delta[-1].max())

    # ------------------------------------------------------------------
    # internals

    def _check_symbols(self, observations: Sequence[int]):
        """Validate and return ``observations`` as an int array.

        One vectorized bounds check instead of a per-symbol Python
        loop; the error message names the first offending symbol, as
        the scalar loop did.  Returns ``None`` for an empty sequence.
        """
        if not isinstance(observations, (list, tuple, np.ndarray)):
            observations = list(observations)
        arr = np.asarray(observations, dtype=np.intp)
        if arr.shape[0] == 0:
            return None
        bad = (arr < 0) | (arr >= self.n_symbols)
        if bad.any():
            symbol = int(arr[int(np.argmax(bad))])
            raise ValueError(
                f"observation {symbol} outside [0, {self.n_symbols})"
            )
        return arr

