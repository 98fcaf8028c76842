"""Unit tests for the HMM recognition package."""

import numpy as np
import pytest

from repro.core.adl import Routine
from repro.recognition.hmm import DiscreteHMM
from repro.recognition.repair import EpisodeRepairer


def two_state_hmm(stay=0.7, correct=0.9):
    prior = np.array([1.0, 0.0])
    transition = np.array([[stay, 1 - stay], [0.0, 1.0]])
    emission = np.array([[correct, 1 - correct], [1 - correct, correct]])
    return DiscreteHMM(prior, transition, emission)


class TestDiscreteHMM:
    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            DiscreteHMM(
                np.array([0.5, 0.4]),
                np.eye(2),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
            )

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            DiscreteHMM(
                np.array([1.0]),
                np.eye(2),
                np.array([[1.0]]),
            )

    def test_viterbi_decodes_obvious_path(self):
        hmm = two_state_hmm(correct=0.95)
        path, score = hmm.viterbi([0, 0, 1, 1])
        assert path == [0, 0, 1, 1]
        assert score < 0.0

    def test_viterbi_empty(self):
        assert two_state_hmm().viterbi([]) == ([], 0.0)

    def test_out_of_range_symbol_rejected(self):
        hmm = two_state_hmm()
        assert len(hmm.viterbi([1, 0, 1])[0]) == 3  # top symbol is valid
        with pytest.raises(ValueError, match="observation 5 "):
            hmm.viterbi([0, 5])
        with pytest.raises(ValueError, match="observation -2 "):
            hmm.viterbi([0, -2])

    def test_single_observation(self):
        hmm = two_state_hmm()
        path, _ = hmm.viterbi([0])
        assert path == [0]


class TestEpisodeRepairer:
    @pytest.fixture
    def repairer(self, tea_adl):
        return EpisodeRepairer(tea_adl.canonical_routine())

    def test_clean_episode_unchanged(self, repairer):
        assert repairer.repair([1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_single_gap_filled(self, repairer):
        assert repairer.repair([1, 3, 4]) == [1, 2, 3, 4]

    def test_double_gap_filled(self, repairer):
        assert repairer.repair([1, 4]) == [1, 2, 3, 4]

    def test_missing_first_step_restored(self, repairer):
        assert repairer.repair([2, 3, 4]) == [1, 2, 3, 4]

    def test_cut_short_episode_not_extended(self, repairer):
        # A run that genuinely stopped after step 2 must not be
        # hallucinated to completion.
        assert repairer.repair([1, 2]) == [1, 2]

    def test_empty_stream_repairs_to_full_routine(self, repairer):
        assert repairer.repair([]) == [1, 2, 3, 4]

    def test_foreign_tools_dropped(self, repairer):
        assert repairer.repair([1, 99, 3, 4]) == [1, 2, 3, 4]

    def test_repair_all(self, repairer):
        repaired = repairer.repair_all([[1, 3, 4], [1, 2, 3, 4]])
        assert repaired == [[1, 2, 3, 4], [1, 2, 3, 4]]

    def test_personalized_routine_respected(self, tea_adl):
        repairer = EpisodeRepairer(Routine(tea_adl, [1, 3, 2, 4]))
        assert repairer.repair([1, 2, 4]) == [1, 3, 2, 4]

    def test_parameter_validation(self, tea_adl):
        with pytest.raises(ValueError):
            EpisodeRepairer(tea_adl.canonical_routine(), miss_probability=1.0)

    def test_improves_training_on_gappy_logs(self, tea_adl):
        from repro.planning.trainer import RoutineTrainer
        from repro.resident.routines import noisy_episodes

        routine = tea_adl.canonical_routine()
        rng = np.random.default_rng(100)
        noisy = noisy_episodes(routine, 120, rng, miss_probability=0.2)
        repaired = EpisodeRepairer(routine, miss_probability=0.2).repair_all(
            noisy
        )

        def final_accuracy(log, seed=0):
            trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(seed))
            return trainer.train(log, routine=routine).curve.greedy_accuracy[-1]

        assert final_accuracy(repaired) == 1.0
        assert final_accuracy(repaired) > final_accuracy(noisy)

