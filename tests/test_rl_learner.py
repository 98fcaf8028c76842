"""Behaviour the tabular learners share through ``TabularLearner``."""

import pytest

from repro.rl.dyna import DynaQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.learner import TabularLearner
from repro.rl.tdlambda import TDLambdaQLearner

#: The learners whose ``observe`` bootstraps from a set of next actions.
NEXT_ACTION_SET_LEARNERS = {
    "tdlambda": TDLambdaQLearner,
    "expected-sarsa": ExpectedSarsaLearner,
    "dyna": DynaQLearner,
}


@pytest.mark.parametrize("name", sorted(NEXT_ACTION_SET_LEARNERS))
def test_empty_next_actions_raise_before_any_write(name):
    learner = NEXT_ACTION_SET_LEARNERS[name]()
    assert isinstance(learner, TabularLearner)
    with pytest.raises(ValueError, match="no actions available"):
        learner.observe("s", "a", 1.0, "s2", (), False)
    assert learner.q.version == 0
    assert len(learner.q) == 0
    assert learner.updates == 0


@pytest.mark.parametrize("name", sorted(NEXT_ACTION_SET_LEARNERS))
def test_empty_next_actions_are_fine_when_terminal(name):
    learner = NEXT_ACTION_SET_LEARNERS[name](learning_rate=0.5)
    assert learner.observe("s", "a", 1.0, "s2", (), True) == 1.0
    assert learner.updates == 1
