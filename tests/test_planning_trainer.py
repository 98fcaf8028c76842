"""Unit tests for the routine trainer (offline TD(λ) training)."""

import numpy as np
import pytest

from repro.core.adl import Routine
from repro.core.config import PlanningConfig
from repro.core.errors import RoutineError
from repro.planning.state import episode_states
from repro.planning.trainer import RoutineTrainer
from repro.rl.dyna import DynaQLearner


def train(adl, episodes=120, seed=0, routine=None, config=None, learner=None):
    trainer = RoutineTrainer(
        adl, config or PlanningConfig(), learner=learner,
        rng=np.random.default_rng(seed)
    )
    routine = routine if routine is not None else adl.canonical_routine()
    log = [list(routine.step_ids)] * episodes
    return trainer, trainer.train(log, routine=routine)


class TestTraining:
    def test_converges_within_120_episodes(self, tea_adl):
        _, result = train(tea_adl)
        assert result.convergence[0.95] is not None
        assert result.convergence[0.98] is not None
        assert result.convergence[0.95] <= result.convergence[0.98]

    def test_final_greedy_accuracy_is_one(self, tea_adl):
        _, result = train(tea_adl)
        assert result.curve.greedy_accuracy[-1] == 1.0

    def test_policy_prefers_minimal_prompts(self, tea_adl):
        # The 100-vs-50 reward gap teaches minimality (care principle 2).
        _, result = train(tea_adl)
        assert result.curve.minimal_fraction[-1] == 1.0

    def test_curve_lengths_match_episodes(self, tea_adl):
        _, result = train(tea_adl, episodes=50)
        assert result.curve.iterations() == 50
        assert len(result.curve.smoothed_accuracy) == 50

    def test_learns_personalized_routine(self, tea_adl):
        routine = Routine(tea_adl, [1, 3, 2, 4])
        trainer, result = train(tea_adl, routine=routine)
        states = episode_states([1, 3, 2, 4])
        for index in range(len(states) - 1):
            action = trainer.learner.greedy_action(states[index], trainer.actions)
            assert action.tool_id == states[index + 1].current

    def test_empty_episode_log_rejected(self, tea_adl):
        trainer = RoutineTrainer(tea_adl)
        with pytest.raises(ValueError):
            trainer.train([])

    def test_routine_defaults_to_first_episode(self, tea_adl):
        trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(0))
        result = trainer.train([[1, 3, 2, 4]] * 60)
        assert list(result.routine.step_ids) == [1, 3, 2, 4]

    def test_invalid_default_routine_rejected(self, tea_adl):
        trainer = RoutineTrainer(tea_adl)
        with pytest.raises(RoutineError):
            trainer.train([[1, 1, 2]])

    def test_smoothed_is_rolling_mean_of_behaviour(self, tea_adl):
        _, result = train(tea_adl, episodes=30)
        window = RoutineTrainer.SMOOTHING_WINDOW
        curve = result.curve
        for index in range(len(curve.smoothed_accuracy)):
            chunk = curve.behaviour_accuracy[max(0, index - window + 1): index + 1]
            assert curve.smoothed_accuracy[index] == pytest.approx(
                sum(chunk) / len(chunk)
            )

    def test_reproducible_given_seed(self, tea_adl):
        _, first = train(tea_adl, seed=3)
        _, second = train(tea_adl, seed=3)
        assert first.curve.behaviour_accuracy == second.curve.behaviour_accuracy
        assert first.convergence == second.convergence


class TestDynaIntegration:
    def test_dyna_learner_supported(self, tea_adl):
        learner = DynaQLearner(
            learning_rate=0.2, discount=0.9, planning_steps=5, initial_q=1000.0
        )
        _, result = train(tea_adl, learner=learner, episodes=60)
        assert result.curve.greedy_accuracy[-1] == 1.0
        assert learner.planning_updates > 0


class TestTrainingResult:
    def test_converged_helper(self, tea_adl):
        _, result = train(tea_adl)
        assert result.converged(0.95)
        assert not result.converged(0.5) or result.convergence.get(0.5)


class TestAlternativeLearners:
    def test_expected_sarsa_learner_supported(self, tea_adl):
        from repro.rl.expected_sarsa import ExpectedSarsaLearner

        config = PlanningConfig()
        learner = ExpectedSarsaLearner(
            learning_rate=config.learning_rate,
            discount=config.discount,
            epsilon=0.1,
            initial_q=config.initial_q,
        )
        _, result = train(tea_adl, learner=learner)
        assert result.curve.greedy_accuracy[-1] == 1.0
