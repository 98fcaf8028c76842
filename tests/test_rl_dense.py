"""The indexed dense RL tables and their bit-identity contract.

Training through ``repro.rl.dense`` must be *indistinguishable* from
training through the plain dict-backed table it replaced (kept as a
test oracle in ``tests/oracles/qtable.py``): same RNG draw sequence,
same learning curves, same convergence iterations, same greedy
policies and the same ``training_document`` bytes, for every learner.
The learners now run only on the dense tables, so the reference side
of each comparison is a digest recorded from the dict-backed table --
any arithmetic reordering in the fused dense paths shows up here as a
digest mismatch.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from oracles.qtable import QTable
from oracles.traces import EligibilityTraces

from repro.core.config import PlanningConfig
from repro.planning.action import action_space
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import episode_states
from repro.planning.store import training_cache_key, training_document
from repro.planning.trainer import RoutineTrainer
from repro.rl.dense import DenseQTable, DenseTraces, StateActionIndex
from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.policies import EpsilonGreedyPolicy
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.schedules import ExponentialDecay
from repro.rl.tdlambda import TDLambdaQLearner
from repro.rl.traces import TraceKind
from repro.sim.random import seeded_generator

EPISODES = 60

#: learner name -> factory(config); covers every learner the
#: evaluation suite trains, in both trace flavours where applicable.
LEARNERS = {
    "tdlambda-replacing": lambda c: TDLambdaQLearner(
        learning_rate=c.learning_rate, discount=c.discount,
        trace_decay=c.trace_decay, policy=_decay_policy(c),
        trace_kind=TraceKind.REPLACING, initial_q=c.initial_q,
    ),
    "tdlambda-accumulating": lambda c: TDLambdaQLearner(
        learning_rate=c.learning_rate, discount=c.discount,
        trace_decay=c.trace_decay, policy=_decay_policy(c),
        trace_kind=TraceKind.ACCUMULATING, initial_q=c.initial_q,
    ),
    "dyna": lambda c: DynaQLearner(
        learning_rate=c.learning_rate, discount=c.discount,
        planning_steps=10, policy=_decay_policy(c),
        initial_q=c.initial_q,
    ),
    "expected-sarsa": lambda c: ExpectedSarsaLearner(
        learning_rate=c.learning_rate, discount=c.discount,
        epsilon=0.2, initial_q=c.initial_q,
    ),
}


def _decay_policy(config: PlanningConfig) -> EpsilonGreedyPolicy:
    return EpsilonGreedyPolicy(
        ExponentialDecay(config.epsilon, config.epsilon_decay)
    )


def _train(adl, learner_name: str, seed: int):
    config = PlanningConfig()
    learner = LEARNERS[learner_name](config)
    trainer = RoutineTrainer(
        adl, config, learner=learner, rng=seeded_generator(seed)
    )
    return trainer.train([list(adl.step_ids)] * EPISODES)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _table_rows(table):
    """Every written (state, action, value), ``repr``-exact and sorted."""
    return sorted(
        (repr(state), repr(action), repr(table.value(state, action)))
        for state, action in table.known_pairs()
    )


def _fingerprint(result) -> str:
    """sha256 over everything a training run observably produced."""
    curve = result.curve
    return _digest(
        {
            "curve": [
                [repr(value) for value in series]
                for series in (
                    curve.behaviour_accuracy,
                    curve.smoothed_accuracy,
                    curve.greedy_accuracy,
                    curve.minimal_fraction,
                )
            ],
            "convergence": sorted(
                (repr(criterion), iteration)
                for criterion, iteration in result.convergence.items()
            ),
            "q": [_table_rows(result.learner.q)],
        }
    )


#: :func:`_fingerprint` of each learner's training run, recorded from
#: the dict-backed reference table (``tests/oracles/qtable.py``) --
#: the spec the dense tables were proven bit-identical against.
SPARSE_REFERENCE = {
    (0, "dyna"):
        "f2c67b7d01da917db3414fe23de25151a0bd1a69053dc9b15ae5c323864af518",
    (0, "expected-sarsa"):
        "8c05ddab034c6f95e2bb8227effda10f93b13e957e019443841676d4159de139",
    (0, "tdlambda-accumulating"):
        "c4dd1f0b4db17db7d9f45d85992a415ba2daebcf6cb919116606c80c2d6bafbb",
    (0, "tdlambda-replacing"):
        "c4dd1f0b4db17db7d9f45d85992a415ba2daebcf6cb919116606c80c2d6bafbb",
    (3, "dyna"):
        "caa4028123380c6450e19dde412cbaefd9a3448d7be04a2b81033b8e8864dbe4",
    (3, "expected-sarsa"):
        "0d9d526619d9fc46983807c55f70eb40cf77cfc6f97324ccf4bc5d4289c9d34c",
    (3, "tdlambda-accumulating"):
        "2bfe8ad706e54376449bcb18cdad11be31c8a9bcbf91760cbf5d54193eeb9379",
    (3, "tdlambda-replacing"):
        "2bfe8ad706e54376449bcb18cdad11be31c8a9bcbf91760cbf5d54193eeb9379",
}
#: Naive SARSA(λ) deltas, greedy actions and table, both trace kinds
#: (a fixed routine never revisits a pair, so the kinds agree).
SARSA_REFERENCE = (
    "4810377cf1a82d94421981771233b9b39b4ec133ab53b2130aed2b17e1f161fc"
)
#: sha256 of the seed-0 ``training_document`` bytes.
DOCUMENT_REFERENCE = (
    "55ee384d28285470105b209a6c5736d37a58f91fb24b716e1240a4c614a374cf"
)
#: ``training_cache_key`` of the same run, as computed when the Q-table
#: backend was still a ``PlanningConfig`` field (both backends agreed).
CACHE_KEY_REFERENCE = (
    "6fba7fee524eede783b7f7ebcd47f295fcf186911971510efca73d732d3c51e4"
)


# ---------------------------------------------------------------------------
# Bit-identity with the dict-backed reference, every learner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("learner_name", sorted(LEARNERS))
@pytest.mark.parametrize("seed", [0, 3])
def test_backends_train_identically(tea_adl, learner_name, seed):
    result = _train(tea_adl, learner_name, seed)
    # Exact digests over repr'd floats, not approx: the contract is
    # bit-identity with the reference table's run.
    assert _fingerprint(result) == SPARSE_REFERENCE[seed, learner_name]


@pytest.mark.parametrize(
    "trace_kind", [TraceKind.REPLACING, TraceKind.ACCUMULATING]
)
def test_sarsa_backends_train_identically(tea_adl, trace_kind):
    """Naive SARSA(λ), trained the way the ablation bench trains it."""
    config = PlanningConfig()
    actions = tuple(action_space(tea_adl))
    learner = SarsaLambdaLearner(
        learning_rate=config.learning_rate, discount=config.discount,
        trace_decay=config.trace_decay, policy=_decay_policy(config),
        trace_kind=trace_kind, initial_q=config.initial_q,
    )
    rng = seeded_generator(0)
    routine = tea_adl.canonical_routine()
    log = [list(routine.step_ids)] * EPISODES
    reward_fn = CoReDAReward(config, log[0][-1])
    deltas = []
    for iteration, episode in enumerate(log):
        states = episode_states(list(episode))
        learner.begin_episode()
        action, _ = learner.select_action(
            states[0], actions, rng, step=iteration
        )
        for index in range(len(states) - 1):
            state, next_state = states[index], states[index + 1]
            reward = reward_fn.reward(state, action, next_state)
            done = next_state.current == reward_fn.terminal_step_id
            if done:
                deltas.append(
                    learner.observe(
                        state, action, reward, next_state, None, True
                    )
                )
                break
            next_action, _ = learner.select_action(
                next_state, actions, rng, step=iteration
            )
            deltas.append(
                learner.observe(
                    state, action, reward, next_state, next_action, False
                )
            )
            action = next_action
    probe = episode_states(list(routine.step_ids))
    greedy = [learner.greedy_action(s, actions) for s in probe[:-1]]
    assert _digest(
        {
            "deltas": [repr(delta) for delta in deltas],
            "greedy": [repr(action) for action in greedy],
            "q": _table_rows(learner.q),
        }
    ) == SARSA_REFERENCE


# ---------------------------------------------------------------------------
# Cache key and document byte-identity
# ---------------------------------------------------------------------------


def test_training_document_bytes_identical(tea_adl):
    result = _train(tea_adl, "tdlambda-replacing", 0)
    blob = json.dumps(
        training_document(result, tea_adl.name), sort_keys=True
    ).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == DOCUMENT_REFERENCE


def test_cache_key_ignores_backend(tea_adl):
    """Policy caches written under either retired table backend stay
    addressable: the key is the one both backends computed."""
    key = training_cache_key(
        tea_adl.name, list(tea_adl.step_ids), PlanningConfig(), 0, EPISODES
    )
    assert key == CACHE_KEY_REFERENCE


# ---------------------------------------------------------------------------
# The batched-draw RNG contract Dyna's planning sweep relies on
# ---------------------------------------------------------------------------


def test_batched_integer_draws_match_sequential():
    """``rng.integers(n, size=k)`` == k scalar draws, same end state.

    ``DynaQLearner._plan`` draws its planning sample indices in one
    batch; this pins the NumPy property that makes the batch consume
    the bit stream exactly like one scalar draw per planning step.
    """
    for n in (1, 3, 7, 1000):
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        batched = a.integers(n, size=17).tolist()
        sequential = [int(b.integers(n)) for _ in range(17)]
        assert batched == sequential
        # Both generators are left in the same state.
        assert a.integers(1 << 30) == b.integers(1 << 30)


# ---------------------------------------------------------------------------
# DenseQTable unit semantics (vs the dict-backed oracle)
# ---------------------------------------------------------------------------


def test_dense_matches_sparse_semantics():
    sparse, dense = QTable(initial_value=0.5), DenseQTable(initial_value=0.5)
    actions = ("alpha", "beta", "gamma")
    for table in (sparse, dense):
        assert table.value("s0", "alpha") == 0.5
        table.set("s0", "beta", 2.0)
        table.add("s0", "beta", -0.5)
        table.set("s1", "gamma", 1.0)
    for state in ("s0", "s1", "unseen"):
        assert dense.value(state, "beta") == sparse.value(state, "beta")
        assert dense.best_action(state, actions) == sparse.best_action(
            state, actions
        )
        assert dense.max_value(state, actions) == sparse.max_value(
            state, actions
        )
        assert dense.action_values(state, actions) == sparse.action_values(
            state, actions
        )
    assert sorted(map(repr, dense.known_pairs())) == sorted(
        map(repr, sparse.known_pairs())
    )
    assert len(dense) == len(sparse) == 2


def test_dense_tie_breaking_is_repr_order():
    """Ties go to the repr-smallest action, exactly like the oracle."""
    sparse, dense = QTable(), DenseQTable()
    # Interning order deliberately disagrees with repr order.
    actions = ("zeta", "alpha", "mid")
    for table in (sparse, dense):
        for action in actions:
            table.set("s", action, 1.0)
    assert dense.best_action("s", actions) == "alpha"
    assert dense.best_action("s", actions) == sparse.best_action("s", actions)
    assert dense.greedy_policy({"s": list(actions)}) == sparse.greedy_policy(
        {"s": list(actions)}
    )


def test_dense_empty_actions_raise():
    dense = DenseQTable()
    with pytest.raises(ValueError):
        dense.best_action("s", ())
    with pytest.raises(ValueError):
        dense.max_value("s", ())


def test_dense_copy_is_independent():
    dense = DenseQTable()
    dense.set("s", "a", 1.0)
    clone = dense.copy()
    clone.set("s", "a", 5.0)
    clone.set("s2", "b", 7.0)
    assert dense.value("s", "a") == 1.0
    assert dense.value("s2", "b") == 0.0
    assert dense.max_abs_difference(clone) == 7.0


def test_dense_tables_share_one_index():
    """Two tables on one index (as `copy()` makes) stay in sync."""
    index = StateActionIndex()
    q_a = DenseQTable(index=index)
    q_b = DenseQTable(index=index)
    # Intern far more states through q_a than the initial capacity.
    for i in range(100):
        q_a.set(f"state-{i}", "go", float(i))
    # q_b must see the enlarged index without having interned anything.
    assert q_b.value("state-99", "go") == 0.0
    q_b.set("state-99", "go", -1.0)
    assert q_b.best_action("state-99", ("go", "stop")) == "stop"
    assert q_a.value("state-99", "go") == 99.0


def test_dense_as_array_tracks_writes():
    dense = DenseQTable()
    dense.set("s", "a", 3.0)
    first = dense.as_array()
    sid, aid = dense.index.state_id("s"), dense.index.action_id("a")
    assert first[sid, aid] == 3.0
    dense.add("s", "a", 1.0)
    assert dense.as_array()[sid, aid] == 4.0


def test_argmax_prober_tracks_updates_and_growth():
    dense = DenseQTable()
    states = ["s0", "s1", "s2"]
    actions = ("a", "b", "c")
    prober = dense.argmax_prober(states, actions)
    assert prober() == [
        dense.best_action(state, actions) for state in states
    ]
    dense.set("s1", "c", 9.0)
    assert prober()[1] == "c"
    # Force a table grow; the prober must revalidate its offsets.
    for i in range(200):
        dense.set(f"grow-{i}", "a", 0.0)
    dense.set("s2", "b", 4.0)
    assert prober() == [
        dense.best_action(state, actions) for state in states
    ]
    with pytest.raises(ValueError):
        dense.argmax_prober(states, ())


# ---------------------------------------------------------------------------
# DenseTraces unit semantics (vs the dict-backed oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind", [TraceKind.REPLACING, TraceKind.ACCUMULATING]
)
def test_dense_traces_match_sparse(kind):
    dense = DenseTraces(index=DenseQTable().index, kind=kind)
    sparse = EligibilityTraces(kind=kind)
    for traces in (dense, sparse):
        traces.visit("s0", "a")
        traces.visit("s0", "a")  # replacing pins to 1, accumulating sums
        traces.visit("s1", "b")
        traces.decay(0.5)
    assert dense.get("s0", "a") == sparse.get("s0", "a")
    assert dense.get("s1", "b") == sparse.get("s1", "b")
    assert dict(dense.items()) == dict(sparse.items())
    # Cutoff: decay far enough and entries are dropped on both.
    for _ in range(40):
        dense.decay(0.5)
        sparse.decay(0.5)
    assert len(dense) == len(sparse) == 0


def test_dense_traces_apply_update_and_snapshot():
    q = DenseQTable()
    traces = DenseTraces(index=q.index, kind=TraceKind.REPLACING)
    traces.visit("s0", "a")
    traces.decay(0.5)
    traces.visit("s1", "b")
    traces.apply_update(q, 2.0)
    assert q.value("s0", "a") == 1.0  # 2.0 * 0.5
    assert q.value("s1", "b") == 2.0
    with pytest.raises(ValueError, match="share one index"):
        traces.apply_update(DenseQTable(), 2.0)
    # items() is a snapshot: mutating mid-iteration must be safe.
    for (state, action), _ in traces.items():
        traces.visit(state, action)
    traces.reset()
    assert len(traces) == 0 and list(traces.items()) == []
